//! The op-stream generator: a pure function of `(seed, client index)`.
//!
//! Each client owns a fixed ring of row slots. The seeded stream picks the
//! action and the slot; it never looks at the wall clock or at results, so
//! the same seed replays the same transactions on any commit. The
//! generator keeps its own model of which slots hold a row (assuming every
//! transaction commits) only to pick applicable actions: inserts go to
//! empty slots, updates and deletes to occupied ones.

use crate::spec::{Mix, Spec, DIRS, FILE_LEN, PRELOAD_ROWS};

/// splitmix64: tiny, seedable, and fixed here so that no change to a
/// vendored crate can alter the op stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is far
    /// below anything the benchmark can resolve.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Where rows and files live: slot ids, directories, and which shard
/// group each directory belongs to.
#[derive(Debug, Clone)]
pub struct Layout {
    pub clients: usize,
    /// Slots per client that set-up fills with a linked row.
    pub preload: usize,
    /// Slots per client in total; the rest start empty so inserts have
    /// somewhere to go while deletes make room.
    pub ring: usize,
    /// Shard names, one per group.
    pub shards: Vec<String>,
    /// Group (index into `shards`) of each directory.
    pub dir_group: Vec<u8>,
}

impl Layout {
    /// Layout for `clients` clients over `shards`; directories are
    /// grouped exactly as `hostdb::ShardMap` routes them.
    pub fn new(clients: usize, shards: &[String]) -> Layout {
        let preload = PRELOAD_ROWS / clients;
        let map = hostdb::ShardMap::new();
        if shards.len() > 1 {
            map.set_shards(shards);
        }
        let dir_group = (0..DIRS)
            .map(|d| {
                let probe = format!("{}/x", dir_path(d));
                match map.route(&probe, map.epoch(), std::time::Duration::ZERO) {
                    Ok(Some(r)) => {
                        shards.iter().position(|s| *s == r.shard).expect("routed to a ring member")
                            as u8
                    }
                    _ => 0,
                }
            })
            .collect();
        Layout { clients, preload, ring: preload + preload / 5, shards: shards.to_vec(), dir_group }
    }

    pub fn slot_id(&self, client: usize, index: usize) -> i64 {
        (client * self.ring + index) as i64
    }

    pub fn group_of(&self, slot: i64) -> usize {
        self.dir_group[slot as usize % DIRS] as usize
    }

    /// File path of `slot`'s `version`-th file. Every link uses a fresh
    /// name: relinking a name would make DLFM's per-name history grow and
    /// the cost of a link drift upwards during the run.
    pub fn path(&self, slot: i64, version: u32) -> String {
        format!("{}/s{slot}v{version}", dir_path(slot as usize % DIRS))
    }

    pub fn url(&self, slot: i64, version: u32) -> String {
        format!("dlfs://{}{}", self.shards[self.group_of(slot)], self.path(slot, version))
    }
}

fn dir_path(dir: usize) -> String {
    format!("/b/d{dir:02}")
}

/// Content of `slot`'s `version`-th file: a header readers verify, then
/// filler up to `FILE_LEN`.
pub fn file_content(slot: i64, version: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(FILE_LEN);
    v.extend_from_slice(&slot.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    v.resize(FILE_LEN, b'.');
    v
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Insert,
    Update,
    Delete,
}

/// One DML statement. `version` is the file the row links afterwards
/// (insert, update) or linked before (delete).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stmt {
    pub action: Action,
    pub slot: i64,
    pub version: u32,
}

/// One transaction of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Select the row, get a token for its file, read the file.
    Read { slot: i64, version: u32 },
    /// `n` DML statements (`stmts[..n]`), each in a different shard group.
    Write { stmts: [Stmt; 2], n: usize },
}

struct Group {
    occupied: Vec<u32>,
    empty: Vec<u32>,
}

pub struct Gen {
    rng: Rng,
    client: usize,
    layout: Layout,
    read_pct: usize,
    stmts_per_txn: usize,
    mix: Mix,
    groups: Vec<Group>,
    version: Vec<u32>,
}

impl Gen {
    pub fn new(spec: &Spec, layout: &Layout, seed: u64, client: usize) -> Gen {
        let n_groups = layout.shards.len();
        assert!(spec.stmts_per_txn == 1 || spec.stmts_per_txn == n_groups);
        let mut groups: Vec<Group> =
            (0..n_groups).map(|_| Group { occupied: Vec::new(), empty: Vec::new() }).collect();
        for i in 0..layout.ring {
            let g = &mut groups[layout.group_of(layout.slot_id(client, i))];
            if i < layout.preload {
                g.occupied.push(i as u32);
            } else {
                g.empty.push(i as u32);
            }
        }
        Gen {
            // Distinct, well-mixed streams per client from one seed.
            rng: Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (client as u64 + 1)),
            client,
            layout: layout.clone(),
            read_pct: spec.read_pct as usize,
            stmts_per_txn: spec.stmts_per_txn,
            mix: spec.mix,
            groups,
            version: vec![0; layout.ring],
        }
    }

    pub fn next_plan(&mut self) -> Plan {
        if self.rng.below(100) < self.read_pct {
            let g = self.rng.below(self.groups.len());
            let occ = &self.groups[g].occupied;
            let i = occ[self.rng.below(occ.len())] as usize;
            return Plan::Read {
                slot: self.layout.slot_id(self.client, i),
                version: self.version[i],
            };
        }
        let filler = Stmt { action: Action::Update, slot: -1, version: 0 };
        let mut stmts = [filler; 2];
        for (k, stmt) in stmts.iter_mut().enumerate().take(self.stmts_per_txn) {
            let g = if self.stmts_per_txn > 1 { k } else { self.rng.below(self.groups.len()) };
            *stmt = self.next_stmt(g);
        }
        Plan::Write { stmts, n: self.stmts_per_txn }
    }

    fn next_stmt(&mut self, g: usize) -> Stmt {
        let r = self.rng.below(100) as u32;
        let group = &mut self.groups[g];
        let mut action = if r < self.mix.insert {
            Action::Insert
        } else if r < self.mix.insert + self.mix.update {
            Action::Update
        } else {
            Action::Delete
        };
        // Keep the ring usable at its edges: no insert without an empty
        // slot, and never delete a group's last row (reads need one).
        if (action == Action::Insert && group.empty.is_empty())
            || (action == Action::Delete && group.occupied.len() <= 1)
        {
            action = Action::Update;
        }
        let i = match action {
            Action::Insert => {
                let i = group.empty.swap_remove(self.rng.below(group.empty.len()));
                group.occupied.push(i);
                i
            }
            Action::Update => group.occupied[self.rng.below(group.occupied.len())],
            Action::Delete => {
                let i = group.occupied.swap_remove(self.rng.below(group.occupied.len()));
                group.empty.push(i);
                i
            }
        } as usize;
        if action != Action::Delete {
            self.version[i] += 1;
        }
        Stmt { action, slot: self.layout.slot_id(self.client, i), version: self.version[i] }
    }
}

/// FNV-1a over the first `ops` plans of a fresh generator: printed in
/// every run header so two runs can be seen to replay the same stream.
pub fn stream_hash(spec: &Spec, layout: &Layout, seed: u64, client: usize, ops: usize) -> u64 {
    let mut gen = Gen::new(spec, layout, seed, client);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for _ in 0..ops {
        match gen.next_plan() {
            Plan::Read { slot, version } => {
                eat(0);
                eat(slot as u64);
                eat(u64::from(version));
            }
            Plan::Write { stmts, n } => {
                for s in &stmts[..n] {
                    eat(1 + s.action as u64);
                    eat(s.slot as u64);
                    eat(u64::from(s.version));
                }
            }
        }
    }
    h
}
