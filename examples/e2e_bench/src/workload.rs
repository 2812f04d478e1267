//! The four workloads and the seeded scripts they drive: who befriends or
//! calls whom each round, which clients fetch, and what each must then see.

use alpenhorn_wire::RoundKind;

/// How many requests of a round are real (the rest is cover traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Real {
    /// One client in `n` sends a real friend request each round, rotating.
    OneIn(usize),
    /// Every client sends a real friend request every round.
    All,
    /// `pairs` friended pairs call each other every round, both directions.
    Pairs(usize),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub protocol: RoundKind,
    pub clients: usize,
    pub real: Real,
    /// Clients that download and scan their mailbox each round; `None` is
    /// all of them (dialing clients must, to advance their keywheels).
    pub fetch_sample: Option<usize>,
    /// Durable coordinator (WAL, fsync every append) + rate limiting.
    pub durable: bool,
    /// Kill CDN node 1 (a data-shard node) after set-up.
    pub degraded: bool,
}

/// Sized so that one round takes 100-300 ms on the 2-core box this was
/// written on: a timed run then holds 40+ measured rounds.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "af_prod",
        protocol: RoundKind::AddFriend,
        clients: 400,
        real: Real::OneIn(20),
        fetch_sample: Some(32),
        durable: true,
        degraded: false,
    },
    Workload {
        name: "af_full",
        protocol: RoundKind::AddFriend,
        clients: 400,
        real: Real::All,
        fetch_sample: Some(8),
        durable: false,
        degraded: false,
    },
    Workload {
        name: "af_full_degraded",
        protocol: RoundKind::AddFriend,
        clients: 400,
        real: Real::All,
        fetch_sample: Some(8),
        durable: false,
        degraded: true,
    },
    Workload {
        name: "dial",
        protocol: RoundKind::Dialing,
        clients: 1000,
        real: Real::Pairs(25),
        fetch_sample: None,
        durable: false,
        degraded: false,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--smoke` shape: same script, 64 clients.
    pub fn smoke(mut self) -> Workload {
        self.clients = 64;
        if let Real::Pairs(_) = self.real {
            self.real = Real::Pairs(4);
        }
        self.fetch_sample = self.fetch_sample.map(|n| n.min(16));
        self
    }
}

/// SplitMix64: the harness's only randomness, a pure function of `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn seed32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        out
    }
}

/// What one client does and must observe in one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Step {
    pub participates: bool,
    /// Befriend or call this client (with this intent) before participating.
    pub target: Option<(u32, u32)>,
    pub fetches: bool,
    /// The one event a fetching client must see: a friend request or call
    /// from this client (with this intent). `None`: it must see nothing.
    pub expect: Option<(u32, u32)>,
}

/// The seeded script of one workload: a fixed shuffle of the clients, read
/// off differently each round.
pub struct Script {
    workload: Workload,
    /// A seeded permutation of `0..clients`.
    order: Vec<u32>,
}

impl Script {
    pub fn new(workload: Workload, seed: u64) -> Script {
        let mut rng = SplitMix::new(seed ^ 0x5c21_9a70_e2eb_e4c1);
        let mut order: Vec<u32> = (0..workload.clients as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        Script { workload, order }
    }

    /// The friended pairs of a dialing workload.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        let Real::Pairs(pairs) = self.workload.real else {
            return Vec::new();
        };
        (0..pairs)
            .map(|j| (self.order[2 * j], self.order[2 * j + 1]))
            .collect()
    }

    /// Steps of measured (or warm-up) round `r`, counted from 0, indexed by
    /// client. `metered` clients always fetch.
    pub fn round(&self, r: usize, metered: &[usize]) -> Vec<Step> {
        let n = self.workload.clients;
        let mut steps = vec![
            Step {
                participates: true,
                ..Step::default()
            };
            n
        ];
        let mut link = |from: u32, to: u32, intent: u32| {
            steps[from as usize].target = Some((to, intent));
            steps[to as usize].expect = Some((from, intent));
            steps[to as usize].fetches = true;
        };
        match self.workload.real {
            Real::OneIn(share) => {
                // Senders rotate through the shuffle; each full cycle pairs
                // a sender with the client one further along, so no ordered
                // pair repeats and no pair ever appears in both directions
                // (which the client would read as a confirmation).
                let per_round = n / share;
                let cycle = r * per_round / n;
                let offset = 1 + cycle % (n / 2 - 1);
                for j in 0..per_round {
                    let at = (r * per_round + j) % n;
                    link(self.order[at], self.order[(at + offset) % n], 0);
                }
            }
            Real::All => {
                let offset = 1 + r % (n / 2 - 1);
                for at in 0..n {
                    link(self.order[at], self.order[(at + offset) % n], 0);
                }
                // Everyone is a recipient; only the sample below fetches.
                steps.iter_mut().for_each(|s| s.fetches = false);
            }
            Real::Pairs(_) => {
                // Dial tokens carry no direction: if both ends of a pair
                // used one intent in one round each would take the other's
                // token for its own. Even intents one way, odd the other.
                for (a, b) in self.pairs() {
                    let intent = 2 * ((r as u32 + a) % 5);
                    link(a, b, intent);
                    link(b, a, intent + 1);
                }
            }
        }
        match self.workload.fetch_sample {
            None => steps.iter_mut().for_each(|s| s.fetches = true),
            Some(sample) => {
                for &m in metered {
                    steps[m].fetches = true;
                }
                // Fill up with bystanders at a fixed stride, shifted each
                // round so the sample walks over the population.
                let mut have = steps.iter().filter(|s| s.fetches).count();
                let stride = (n / sample.max(1)).max(1);
                let mut at = r % stride;
                while have < sample && at < n {
                    if !steps[at].fetches {
                        steps[at].fetches = true;
                        have += 1;
                    }
                    at += stride;
                }
            }
        }
        steps
    }

    /// Set-up of a dialing workload: the two add-friend rounds in which the
    /// pairs complete their handshake. Only the paired clients take part.
    pub fn handshake_round(&self, r: usize) -> Vec<Step> {
        let mut steps = vec![Step::default(); self.workload.clients];
        for (a, b) in self.pairs() {
            for c in [a, b] {
                steps[c as usize].participates = true;
                steps[c as usize].fetches = true;
            }
            if r == 0 {
                steps[a as usize].target = Some((b, 0));
            }
        }
        steps
    }
}
