//! The three workloads and their deterministic input generator.
//!
//! Everything a run sends is a function of `--seed`: which keys exist, the
//! order and kind of operations, and every value (a fixed function of its
//! key, so any hit can be checked without remembering what was written).

use cphash::MAX_KEY;

/// How the generator reaches the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// CPSERVER started in-process, driven over loopback by v2
    /// `RemoteClient` connections.
    Tcp,
    /// The in-process `CpHash` table, driven through one `ClientHandle`.
    InProc,
}

/// Key representation on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    /// The table's native 60-bit keys.
    U64,
    /// Byte strings, which travel in the `kvproto` envelope.
    Bytes,
}

/// How often each key is picked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    Uniform,
    /// Zipf with this exponent; key index 0 is the most popular.
    Zipf(f64),
}

/// Operation mix, in per-mille (lookups + inserts + deletes = 1000).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub lookup_pm: u32,
    pub insert_pm: u32,
    pub delete_pm: u32,
}

/// Everything that defines one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub transport: Transport,
    pub key_kind: KeyKind,
    /// Distinct keys the operation stream draws from.
    pub key_count: u64,
    /// Keys inserted before measuring (indices `0..prefill_keys`; the
    /// prefill runs from the highest index down, so under Zipf the most
    /// popular keys are the most recently used).
    pub prefill_keys: u64,
    /// Value size range in bytes (inclusive); the size is fixed per key.
    pub value_min: usize,
    pub value_max: usize,
    pub popularity: Popularity,
    pub mix: Mix,
    /// Table byte budget (value storage, as the slab allocator counts it).
    pub capacity_bytes: usize,
    /// Value size the table sizes its bucket array for.
    pub typical_value_bytes: usize,
    /// Client connections (TCP) or handles (in-process).
    pub connections: usize,
    /// Operations kept in flight per connection, in every phase.
    pub window: usize,
    /// Offered rate of the open-loop phase, operations per second.
    pub paced_rate: f64,
    /// Does a lookup miss count as a failed operation?
    pub miss_is_failure: bool,
    /// How many times `setup_s` sets the target up (the median is reported).
    pub setups: usize,
}

/// The workloads, by name.
pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        // 16 000 keys x 8 B fit the 128 KiB budget (16 384 values) with
        // room for the values lookups still pin, and the 16 384 bucket
        // lines plus element headers (~2 MiB) fit one core's L2.
        "tcp-hit" => Spec {
            name: "tcp-hit",
            transport: Transport::Tcp,
            key_kind: KeyKind::U64,
            key_count: 16_000,
            prefill_keys: 16_000,
            value_min: 8,
            value_max: 8,
            popularity: Popularity::Uniform,
            mix: Mix {
                lookup_pm: 950,
                insert_pm: 50,
                delete_pm: 0,
            },
            capacity_bytes: 128 << 10,
            typical_value_bytes: 8,
            connections: 2,
            window: 64,
            paced_rate: 40_000.0,
            miss_is_failure: true,
            setups: 9,
        },
        // 32 MiB of 8-byte values = 4 Mi resident entries (~700 MB with
        // bucket lines and element headers, above the LLC); the key set is
        // twice that, so about half the lookups miss and every insert of an
        // absent key evicts.
        "inproc-dram" => Spec {
            name: "inproc-dram",
            transport: Transport::InProc,
            key_kind: KeyKind::U64,
            key_count: 8 << 20,
            prefill_keys: 4 << 20,
            value_min: 8,
            value_max: 8,
            popularity: Popularity::Uniform,
            mix: Mix {
                lookup_pm: 950,
                insert_pm: 50,
                delete_pm: 0,
            },
            capacity_bytes: 32 << 20,
            typical_value_bytes: 8,
            connections: 1,
            window: 1024,
            paced_rate: 500_000.0,
            miss_is_failure: false,
            setups: 3,
        },
        // Enveloped values of 256..=1024 B occupy ~900 B slab blocks on
        // average, so 32 MiB holds ~37 000 of them: 75 000 keys are about
        // twice the capacity.
        "tcp-write" => Spec {
            name: "tcp-write",
            transport: Transport::Tcp,
            key_kind: KeyKind::Bytes,
            key_count: 75_000,
            prefill_keys: 75_000,
            value_min: 256,
            value_max: 1024,
            popularity: Popularity::Zipf(0.99),
            mix: Mix {
                lookup_pm: 450,
                insert_pm: 500,
                delete_pm: 50,
            },
            capacity_bytes: 32 << 20,
            typical_value_bytes: 640,
            connections: 2,
            window: 64,
            paced_rate: 30_000.0,
            miss_is_failure: false,
            setups: 5,
        },
        _ => return None,
    };
    Some(spec)
}

/// Names accepted by [`spec`].
pub const WORKLOADS: [&str; 3] = ["tcp-hit", "inproc-dram", "tcp-write"];

/// splitmix64: the generator's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finalizer.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A bijection on 60-bit integers, so distinct key indices give distinct
/// table keys.
fn permute60(mut x: u64) -> u64 {
    x &= MAX_KEY;
    x ^= x >> 31;
    x = x.wrapping_mul(0x7FB5_D329_728E_A185) & MAX_KEY;
    x ^= x >> 27;
    x = x.wrapping_mul(0x81DA_DEF4_BC2D_D44D) & MAX_KEY;
    x ^ (x >> 33)
}

/// What one operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Lookup,
    Insert,
    Delete,
}

/// One generated operation: its kind and the index of its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u64,
}

/// Key and value material for one seed.  Indices are `0..key_count`.
#[derive(Debug, Clone)]
pub struct Keyspace {
    salt: u64,
    kind: KeyKind,
    value_min: usize,
    value_span: usize,
    pad: Vec<u8>,
}

/// Bytes of value material per seed; longer than any value.
const PAD_BYTES: usize = 2048;

/// Longest byte-string key: `"user:"` plus 16 hex digits.
pub const BYTE_KEY_LEN: usize = 21;

impl Keyspace {
    pub fn new(spec: &Spec, seed: u64) -> Keyspace {
        Keyspace {
            salt: mix64(seed ^ 0x6B65_7973) & MAX_KEY,
            kind: spec.key_kind,
            value_min: spec.value_min,
            value_span: spec.value_max - spec.value_min + 1,
            pad: {
                let mut rng = Rng::new(seed ^ 0x0070_6164);
                let words = (PAD_BYTES / 8) as u64;
                (0..words)
                    .flat_map(|_| rng.next_u64().to_le_bytes())
                    .collect()
            },
        }
    }

    pub fn kind(&self) -> KeyKind {
        self.kind
    }

    /// The table key of index `i` (U64 workloads).
    pub fn u64_key(&self, i: u64) -> u64 {
        permute60(i ^ self.salt)
    }

    /// The byte-string key of index `i` (Bytes workloads).
    pub fn byte_key(&self, i: u64) -> [u8; BYTE_KEY_LEN] {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = *b"user:0000000000000000";
        let k = self.u64_key(i);
        for d in 0..16 {
            out[5 + d] = HEX[((k >> (60 - 4 * d)) & 0xF) as usize];
        }
        out
    }

    /// Write the value of key index `i` into `out` (replacing its content):
    /// an 8-byte header unique to the key (a bijective hash of it), then
    /// bytes of the seed's pad from a per-key offset.  Building and
    /// checking a value is a copy, so the generator stays cheap.
    pub fn value(&self, i: u64, out: &mut Vec<u8>) {
        let h = mix64(self.u64_key(i) ^ 0x7661_6C75_6573);
        let len = self.value_min + (h % self.value_span as u64) as usize;
        out.clear();
        out.extend_from_slice(&h.to_le_bytes()[..len.min(8)]);
        if len > 8 {
            let offset = (h >> 40) as usize % (self.pad.len() - len);
            out.extend_from_slice(&self.pad[offset..offset + len - 8]);
        }
    }
}

/// Draws key indices by popularity.
#[derive(Debug, Clone)]
enum Picker {
    Uniform(u64),
    /// Cumulative distribution over key indices.
    Zipf(Vec<f64>),
}

impl Picker {
    fn new(popularity: Popularity, keys: u64) -> Picker {
        match popularity {
            Popularity::Uniform => Picker::Uniform(keys),
            Popularity::Zipf(s) => {
                let mut cdf = Vec::with_capacity(keys as usize);
                let mut sum = 0.0;
                for rank in 1..=keys {
                    sum += (rank as f64).powf(-s);
                    cdf.push(sum);
                }
                for c in cdf.iter_mut() {
                    *c /= sum;
                }
                Picker::Zipf(cdf)
            }
        }
    }

    fn pick(&self, rng: &mut Rng) -> u64 {
        match self {
            Picker::Uniform(n) => rng.next_u64() % n,
            Picker::Zipf(cdf) => {
                let u = rng.next_f64();
                (cdf.partition_point(|&c| c <= u) as u64).min(cdf.len() as u64 - 1)
            }
        }
    }
}

/// The workload's operation stream.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    picker: Picker,
    mix: Mix,
}

impl OpGen {
    /// The stream for `seed`; `stream` separates independent streams of
    /// one run (measured phases, replays).
    pub fn new(spec: &Spec, seed: u64, stream: u64) -> OpGen {
        OpGen {
            rng: Rng::new(mix64(seed) ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)),
            picker: Picker::new(spec.popularity, spec.key_count),
            mix: spec.mix,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll = (self.rng.next_u64() % 1000) as u32;
        let kind = if roll < self.mix.lookup_pm {
            OpKind::Lookup
        } else if roll < self.mix.lookup_pm + self.mix.insert_pm {
            OpKind::Insert
        } else {
            OpKind::Delete
        };
        Op {
            kind,
            key: self.picker.pick(&mut self.rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_is_consistent() {
        for name in WORKLOADS {
            let s = spec(name).expect("listed workload exists");
            assert_eq!(s.name, name);
            assert_eq!(s.mix.lookup_pm + s.mix.insert_pm + s.mix.delete_pm, 1000);
            assert!(s.prefill_keys <= s.key_count && s.value_min <= s.value_max);
            assert!(s.window > 0 && s.connections > 0 && s.setups > 0);
            assert!(s.value_max < PAD_BYTES);
        }
        assert!(spec("nope").is_none());
    }

    #[test]
    fn keys_are_distinct_and_values_fixed_per_key() {
        let s = spec("tcp-write").unwrap();
        let ks = Keyspace::new(&s, 7);
        let keys: std::collections::HashSet<u64> = (0..10_000).map(|i| ks.u64_key(i)).collect();
        assert_eq!(keys.len(), 10_000);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        ks.value(42, &mut a);
        ks.value(42, &mut b);
        assert_eq!(a, b);
        assert!((256..=1024).contains(&a.len()));
        assert_eq!(&ks.byte_key(3)[..5], b"user:");
        assert_ne!(
            ks.u64_key(1),
            Keyspace::new(&s, 8).u64_key(1),
            "seed changes keys"
        );
    }

    #[test]
    fn stream_repeats_per_seed_and_follows_the_mix() {
        let s = spec("tcp-write").unwrap();
        let a: Vec<Op> = {
            let mut g = OpGen::new(&s, 1, 0);
            (0..20_000).map(|_| g.next_op()).collect()
        };
        let mut g = OpGen::new(&s, 1, 0);
        assert!(a.iter().all(|op| *op == g.next_op()));
        let inserts = a.iter().filter(|o| o.kind == OpKind::Insert).count();
        assert!((9_000..11_000).contains(&inserts), "{inserts}");
        // Zipf 0.99: the most popular key is drawn far more than uniform.
        let hot = a.iter().filter(|o| o.key == 0).count();
        assert!(hot > 500, "{hot}");
    }
}
