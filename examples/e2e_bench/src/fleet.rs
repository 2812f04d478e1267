//! Process hygiene: building, spawning, watching and killing the eight
//! daemons, and reading what the kernel knows about them from `/proc`.
//!
//! Every child lives in one process-global registry, so the three ways a
//! run can end — normal return or panic (the [`Fleet`] drop guard), a blown
//! phase deadline, SIGINT/SIGTERM (both via the [`Watchdog`] thread) — all
//! funnel into [`kill_all`], which kills and reaps each child.

use std::fs;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const MIXERS: usize = 3;
pub const CDN_NODES: usize = 4;
/// `alpenhornd --cdn-nodes` always publishes 3 data + 1 parity shards.
pub const DATA_SHARDS: usize = 3;
pub const PARITY_SHARDS: usize = 1;

const READY_DEADLINE: Duration = Duration::from_secs(10);
const SPAWN_ATTEMPTS: usize = 5;

static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());

/// Kills and reaps every daemon this process started.
pub fn kill_all() {
    // A panicking thread never holds this lock across anything that can
    // panic, and the list stays valid at every step, so recover the guard.
    let mut children = CHILDREN.lock().unwrap_or_else(|e| e.into_inner());
    for child in children.iter_mut() {
        let _ = child.kill();
    }
    for mut child in children.drain(..) {
        let _ = child.wait();
    }
}

fn kill_one(pid: u32) {
    let mut children = CHILDREN.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(at) = children.iter().position(|c| c.id() == pid) {
        let mut child = children.swap_remove(at);
        let _ = child.kill();
        let _ = child.wait();
    }
}

fn has_exited(pid: u32) -> bool {
    let mut children = CHILDREN.lock().unwrap_or_else(|e| e.into_inner());
    children
        .iter_mut()
        .find(|c| c.id() == pid)
        .is_none_or(|c| !matches!(c.try_wait(), Ok(None)))
}

// ---------------------------------------------------------------------------
// Watchdog: phase deadlines and signals
// ---------------------------------------------------------------------------

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Fails the run instead of hanging it: a background thread that kills
/// every daemon and exits the process when the armed phase overruns its
/// deadline or a SIGINT/SIGTERM arrives.
pub struct Watchdog {
    armed: Arc<Mutex<Option<(String, Instant)>>>,
}

impl Watchdog {
    pub fn start() -> Watchdog {
        // SAFETY: `signal` is the libc function std already links; the
        // handler only stores to a static atomic, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
        let armed: Arc<Mutex<Option<(String, Instant)>>> = Arc::new(Mutex::new(None));
        let watched = Arc::clone(&armed);
        // Detached on purpose: it only ever ends the process.
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(50));
            if INTERRUPTED.load(Ordering::SeqCst) {
                eprintln!("e2e_bench: interrupted; killing the daemons");
                kill_all();
                std::process::exit(130);
            }
            let overdue = watched
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
                .filter(|(_, deadline)| Instant::now() > *deadline)
                .map(|(phase, _)| phase.clone());
            if let Some(phase) = overdue {
                eprintln!("e2e_bench: phase '{phase}' overran its deadline; killing the daemons");
                kill_all();
                std::process::exit(3);
            }
        });
        Watchdog { armed }
    }

    /// Starts the clock for `phase`; replaces any previous deadline.
    pub fn arm(&self, phase: &str, limit: Duration) {
        *self.armed.lock().unwrap_or_else(|e| e.into_inner()) =
            Some((phase.to_string(), Instant::now() + limit));
    }

    pub fn disarm(&self) {
        *self.armed.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

// ---------------------------------------------------------------------------
// Building and locating the daemons
// ---------------------------------------------------------------------------

/// The repository this harness was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The directory this executable runs from, which must be a release profile
/// directory: the daemons are built next to it, and numbers from debug
/// daemons are worthless.
pub fn release_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no parent directory")?;
    if dir.file_name().and_then(|n| n.to_str()) != Some("release") {
        return Err(format!(
            "refusing to benchmark a non-release build ({}); use cargo run --release",
            dir.display()
        ));
    }
    Ok(dir.to_path_buf())
}

/// Builds the three shipped daemons in release mode into this executable's
/// own target directory (a no-op when they are fresh).
pub fn build_daemons(release_dir: &Path) -> Result<(), String> {
    let target_dir = release_dir.parent().ok_or("release dir has no parent")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .current_dir(repo_root())
        .args(["build", "--release", "--offline", "--quiet", "--bins"])
        .args(["-p", "alpenhorn-coordinator", "-p", "alpenhorn-mixd"])
        .args(["-p", "alpenhorn-cdn", "--target-dir"])
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the daemons failed ({status})"));
    }
    for bin in ["alpenhornd", "mixd", "cdnd"] {
        if !release_dir.join(bin).is_file() {
            return Err(format!("{bin} missing from {}", release_dir.display()));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Coordinator,
    Mixd,
    Cdnd,
}

pub struct FleetSpec<'a> {
    pub release_dir: &'a Path,
    /// Scratch directory of this fleet: daemon logs and data dirs.
    pub dir: &'a Path,
    pub seed_byte: u8,
    /// The paper's production shape: durable coordinator state (WAL, fsync
    /// on every append) and blind-token rate limiting.
    pub durable: bool,
}

/// Eight live daemons. Dropping the fleet kills them.
pub struct Fleet {
    pub coordinator: String,
    pub mixers: Vec<String>,
    pub cdn_nodes: Vec<String>,
    /// Which CDN nodes are still running (clients keep dialling dead ones).
    pub cdn_alive: Vec<bool>,
    /// The coordinator's `--data-dir`, when durable.
    pub data_dir: Option<PathBuf>,
    /// One line per daemon, as spawned (for the environment block).
    pub flag_lines: Vec<String>,
    pids: Vec<(Role, u32)>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        kill_all();
    }
}

fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl Fleet {
    pub fn spawn(spec: &FleetSpec<'_>) -> Result<Fleet, String> {
        fs::create_dir_all(spec.dir).map_err(|e| format!("{}: {e}", spec.dir.display()))?;
        let mut fleet = Fleet {
            coordinator: String::new(),
            mixers: Vec::new(),
            cdn_nodes: Vec::new(),
            cdn_alive: vec![true; CDN_NODES],
            data_dir: None,
            flag_lines: Vec::new(),
            pids: Vec::new(),
        };
        let seed = spec.seed_byte.to_string();
        for index in 0..MIXERS {
            let index = index.to_string();
            let addr = fleet.spawn_daemon(
                spec,
                Role::Mixd,
                "mixd",
                &["--index", &index, "--seed", &seed, "--log-level", "warn"],
            )?;
            fleet.mixers.push(addr);
        }
        for _ in 0..CDN_NODES {
            let addr = fleet.spawn_daemon(spec, Role::Cdnd, "cdnd", &["--log-level", "warn"])?;
            fleet.cdn_nodes.push(addr);
        }
        let mixers = fleet.mixers.join(",");
        let cdn_nodes = fleet.cdn_nodes.join(",");
        let mut args = vec![
            "--seed",
            &seed,
            "--mixers",
            &mixers,
            "--cdn-nodes",
            &cdn_nodes,
        ];
        args.extend(["--log-level", "warn"]);
        let data_dir = spec.dir.join("coordinator-data");
        let data_dir_arg = data_dir.to_string_lossy().into_owned();
        if spec.durable {
            args.extend([
                "--data-dir",
                &data_dir_arg,
                "--rate-limit-budget",
                "1000000",
            ]);
            fleet.data_dir = Some(data_dir);
        }
        fleet.coordinator = fleet.spawn_daemon(spec, Role::Coordinator, "alpenhornd", &args)?;
        Ok(fleet)
    }

    /// Spawns one daemon on a free loopback port and waits until it accepts
    /// connections. Between choosing the port and the daemon binding it
    /// another process can take it; the daemon then exits at once and the
    /// spawn is retried on a new port.
    fn spawn_daemon(
        &mut self,
        spec: &FleetSpec<'_>,
        role: Role,
        bin: &str,
        args: &[&str],
    ) -> Result<String, String> {
        let ordinal = self.pids.iter().filter(|(r, _)| *r == role).count();
        let log_path = spec.dir.join(format!("{bin}-{ordinal}.log"));
        for _ in 0..SPAWN_ATTEMPTS {
            let port = free_port().map_err(|e| format!("no free port: {e}"))?;
            let addr = format!("127.0.0.1:{port}");
            let log = fs::File::create(&log_path).map_err(|e| format!("{bin} log: {e}"))?;
            let child = Command::new(spec.release_dir.join(bin))
                .args(["--listen", &addr])
                .args(args)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log)
                .spawn()
                .map_err(|e| format!("cannot spawn {bin}: {e}"))?;
            let pid = child.id();
            CHILDREN
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(child);
            let socket: SocketAddr = addr.parse().expect("loopback address");
            let deadline = Instant::now() + READY_DEADLINE;
            loop {
                if has_exited(pid) {
                    kill_one(pid);
                    break; // lost the port race: retry on a new port
                }
                if TcpStream::connect_timeout(&socket, Duration::from_millis(200)).is_ok() {
                    self.pids.push((role, pid));
                    self.flag_lines
                        .push(format!("{bin} --listen {addr} {}", args.join(" ")));
                    return Ok(addr);
                }
                if Instant::now() > deadline {
                    return Err(format!(
                        "{bin} did not accept connections within {READY_DEADLINE:?} (see {})",
                        log_path.display()
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Err(format!(
            "{bin} exited at start-up {SPAWN_ATTEMPTS} times (see {})",
            log_path.display()
        ))
    }

    /// Kills CDN node `index` (the degraded workload's lever).
    pub fn kill_cdn_node(&mut self, index: usize) {
        let nth = self
            .pids
            .iter()
            .enumerate()
            .filter(|(_, (role, _))| *role == Role::Cdnd)
            .map(|(at, _)| at)
            .nth(index)
            .expect("cdn node index in range");
        let (_, pid) = self.pids.remove(nth);
        kill_one(pid);
        self.cdn_alive[index] = false;
    }

    /// Bytes on disk under the coordinator's data directory (0 if volatile).
    pub fn data_dir_bytes(&self) -> u64 {
        self.data_dir.as_deref().map_or(0, dir_bytes)
    }

    /// Whether every daemon that should be running still is.
    pub fn all_alive(&self) -> bool {
        self.pids.iter().all(|(_, pid)| !has_exited(*pid))
    }

    /// CPU time and peak resident memory of the live daemons, per role.
    pub fn usage(&self) -> Usage {
        let mut usage = Usage::default();
        for (role, pid) in &self.pids {
            let slot = match role {
                Role::Coordinator => &mut usage.coordinator,
                Role::Mixd => &mut usage.mixd,
                Role::Cdnd => &mut usage.cdnd,
            };
            slot.cpu_ms += cpu_ms(*pid);
            slot.rss_peak_mb += rss_peak_mb(*pid);
        }
        usage
    }
}

// ---------------------------------------------------------------------------
// /proc
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
pub struct ProcUsage {
    /// utime + stime of every thread, milliseconds.
    pub cpu_ms: f64,
    /// VmHWM, MiB.
    pub rss_peak_mb: f64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub coordinator: ProcUsage,
    pub mixd: ProcUsage,
    pub cdnd: ProcUsage,
}

impl Usage {
    /// Adds the CPU time spent between two readings of one fleet and keeps
    /// the highest memory peak seen.
    pub fn absorb(&mut self, before: &Usage, after: &Usage) {
        for (sum, before, after) in [
            (&mut self.coordinator, before.coordinator, after.coordinator),
            (&mut self.mixd, before.mixd, after.mixd),
            (&mut self.cdnd, before.cdnd, after.cdnd),
        ] {
            sum.cpu_ms += after.cpu_ms - before.cpu_ms;
            sum.rss_peak_mb = sum.rss_peak_mb.max(after.rss_peak_mb);
        }
    }

    pub fn total_cpu_ms(&self) -> f64 {
        self.coordinator.cpu_ms + self.mixd.cpu_ms + self.cdnd.cpu_ms
    }

    pub fn total_rss_peak_mb(&self) -> f64 {
        self.coordinator.rss_peak_mb + self.mixd.rss_peak_mb + self.cdnd.rss_peak_mb
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`getconf CLK_TCK`;
/// 100 on every mainstream Linux build).
fn clock_ticks_per_s() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|text| text.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

/// utime + stime of a process in milliseconds (0 once it is gone).
pub fn cpu_ms(pid: u32) -> f64 {
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<f64>().ok())
        .sum();
    ticks * 1000.0 / clock_ticks_per_s()
}

pub fn self_cpu_ms() -> f64 {
    cpu_ms(std::process::id())
}

fn rss_peak_mb(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`).
pub fn filesystem_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}
