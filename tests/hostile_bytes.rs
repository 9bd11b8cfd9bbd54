//! One seeded driver feeds hostile bytes to every decoder of untrusted
//! input: the wire (`Frame::decode` on all 16 frame types, `read_frame`
//! over byte streams), the column layout (`page::decode_column`), the
//! durable store (`DurableStore::recover` + `read_table` over corrupted
//! device pages — the model catalog is stored as tables there too) and
//! the byte codecs (`float`, both `residual` modes,
//! `generic_decompress`).
//!
//! Per case and decoder, starting from valid images:
//!
//! 1. each image decodes to what was encoded;
//! 2. every strict prefix is an `Err`;
//! 3. seeded bit flips give `Ok` or a typed `Err`, never a panic — for
//!    the store either an `Err` or the stored table unchanged;
//! 4. random byte blobs never panic;
//! 5. every length field set to `u32::MAX`, and every eight-byte or
//!    varint one to `1 << 61`, is an `Err`.
//!
//! A result frame whose trace nests past `MAX_TRACE_DEPTH` is an `Err`
//! too.
//!
//! The wire, page, float and lossless-residual formats give each value
//! one encoding, so wherever they decode to `Ok` the re-encoded result
//! must be exactly the bytes decoded. The driver therefore also writes
//! `u32::MAX` and `1 << 61` at *every* offset of those images: a decoder
//! that accepted a length claim its input cannot hold could not
//! re-encode it, so (5) holds at every length field without a list of
//! where they are.
//!
//! Seeded: `LAWSDB_FAULT_SEED=<seed>` is printed, and a failure names
//! the seed, the case, the decoder and the check.

use lawsdb::obs::{FieldValue, FlightRecord, TraceNode};
use lawsdb::server::protocol::{
    read_frame, write_frame, Frame, QueryMode, SessionOptions, MAX_TRACE_DEPTH,
};
use lawsdb::server::{StatsFormat, WireError, WireResult};
use lawsdb::storage::compress::{float, generic_compress, generic_decompress, residual, varint};
use lawsdb::storage::fault::fault_seed;
use lawsdb::storage::page::{decode_column, encode_column, HEADER_BYTES};
use lawsdb::storage::{Column, DataType, DurableStore, SimulatedDevice, Table, TableBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 8;
/// Seeded corruptions of each valid image, and random blobs per decoder.
const FLIPS: usize = 48;
const BLOBS: usize = 24;

#[test]
fn every_decoder_is_total_on_hostile_bytes() {
    let seed = fault_seed();
    println!("LAWSDB_FAULT_SEED={seed} (set to reproduce)");
    for case in 0..CASES {
        let run = Run { seed, case };
        let mut r = Rng(seed ^ case.wrapping_mul(0xA076_1D64_78BD_642F));
        run.frames(&mut r);
        run.streams(&mut r);
        run.columns(&mut r);
        run.store(&mut r);
        run.codecs(&mut r);
    }
}

// ------------------------------------------------------------ generator

/// SplitMix64, the workspace's seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

fn random_string(rng: &mut Rng) -> String {
    const ALPHABET: &[char] = &['a', 'B', '7', '_', ' ', 'δ', 'λ', '→', '\n', '"', '\\'];
    let len = rng.below(12) as usize;
    (0..len).map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize]).collect()
}

/// A finite f64 (NaN breaks `PartialEq` equality, not the codec — the
/// bits themselves round-trip — so the identity corpus avoids it).
fn random_f64(rng: &mut Rng) -> f64 {
    let raw = (rng.next() as i64 % 1_000_000) as f64 / 128.0;
    if rng.chance(10) {
        0.0
    } else {
        raw
    }
}

fn random_options(rng: &mut Rng) -> SessionOptions {
    let opt_u64 = |r: &mut Rng| {
        if r.chance(50) {
            Some(r.below(1 << 40))
        } else {
            None
        }
    };
    SessionOptions {
        threads: if rng.chance(50) { Some(rng.below(16) as u32) } else { None },
        morsel_rows: if rng.chance(50) { Some(rng.below(1 << 20) as u32) } else { None },
        pruning: if rng.chance(50) { Some(rng.chance(50)) } else { None },
        deadline_ms: opt_u64(rng),
        memory_bytes: opt_u64(rng),
        max_rows: opt_u64(rng),
    }
}

/// One to four columns of every type, NULLs in the floats, 0–19 rows.
fn random_table(rng: &mut Rng) -> Table {
    let rows = rng.below(20) as usize;
    let mut b = TableBuilder::new(random_string(rng));
    // Column names must be distinct; prefix with a counter.
    let ncols = 1 + rng.below(4);
    for c in 0..ncols {
        let name = format!("c{c}_{}", random_string(rng).replace(['\n', '"', '\\'], ""));
        match rng.below(4) {
            0 => {
                b.add_i64(&name, (0..rows).map(|_| rng.next() as i64).collect());
            }
            1 => {
                if rng.chance(50) {
                    b.add_f64_opt(
                        &name,
                        (0..rows)
                            .map(|_| if rng.chance(30) { None } else { Some(random_f64(rng)) })
                            .collect(),
                    );
                } else {
                    b.add_f64(&name, (0..rows).map(|_| random_f64(rng)).collect());
                }
            }
            2 => {
                b.add_str(&name, (0..rows).map(|_| random_string(rng)).collect());
            }
            _ => {
                let bits: Vec<bool> = (0..rows).map(|_| rng.chance(50)).collect();
                b.add_bool(&name, &bits);
            }
        }
    }
    b.build().expect("generated table must be valid")
}

fn random_field_value(rng: &mut Rng) -> FieldValue {
    match rng.below(5) {
        0 => FieldValue::U64(rng.next()),
        1 => FieldValue::I64(rng.next() as i64),
        2 => FieldValue::F64(random_f64(rng)),
        3 => FieldValue::Bool(rng.chance(50)),
        _ => FieldValue::Str(random_string(rng)),
    }
}

/// A random trace tree, at most 4 levels deep so the corpus stays well
/// inside `MAX_TRACE_DEPTH` (a unit test pins the over-deep refusal).
fn random_trace(rng: &mut Rng, depth: usize) -> TraceNode {
    let nchildren = if depth >= 3 { 0 } else { rng.below(3) };
    TraceNode {
        name: random_string(rng),
        start_us: rng.next(),
        duration_us: if rng.chance(70) { Some(rng.next()) } else { None },
        index: if rng.chance(30) { Some(rng.below(64)) } else { None },
        fields: (0..rng.below(3)).map(|_| (random_string(rng), random_field_value(rng))).collect(),
        children: (0..nchildren).map(|_| random_trace(rng, depth + 1)).collect(),
    }
}

fn random_flight_record(rng: &mut Rng) -> FlightRecord {
    FlightRecord {
        query_id: rng.next(),
        sql: random_string(rng),
        mode: random_string(rng),
        total_us: rng.next(),
        error: if rng.chance(30) { Some(random_string(rng)) } else { None },
        layers: (0..rng.below(4)).map(|_| (random_string(rng), rng.next())).collect(),
        dominant_layer: random_string(rng),
        dominant_us: rng.next(),
        trace: if rng.chance(60) { Some(random_trace(rng, 0)) } else { None },
    }
}

fn random_wire_error(rng: &mut Rng) -> WireError {
    match rng.below(6) {
        0 => WireError::Rejected {
            active: rng.next() as u32,
            queued: rng.next() as u32,
            retry_after_ms: rng.next(),
        },
        1 => WireError::QueueTimeout { waited_ms: rng.next(), budget_ms: rng.next() },
        2 => WireError::SessionLimit { active: rng.next() as u32, max: rng.next() as u32 },
        3 => WireError::Query { kind: random_string(rng), detail: random_string(rng) },
        4 => WireError::Protocol { detail: random_string(rng) },
        _ => WireError::Server { detail: random_string(rng) },
    }
}

/// One random frame of each of the 16 wire types, in tag order.
fn frame_corpus(rng: &mut Rng) -> Vec<Frame> {
    vec![
        Frame::Hello { protocol_version: rng.next() as u32, options: random_options(rng) },
        Frame::Query {
            mode: match rng.below(5) {
                0 => QueryMode::Exact,
                1 => QueryMode::Resilient,
                2 => QueryMode::Adaptive,
                3 => QueryMode::Explain,
                _ => QueryMode::Cluster,
            },
            sql: random_string(rng),
            trace: rng.chance(50),
        },
        Frame::SetOptions { options: random_options(rng) },
        Frame::Stats {
            format: if rng.chance(50) { StatsFormat::Prometheus } else { StatsFormat::Json },
        },
        Frame::Cancel { session: rng.next() },
        Frame::Close,
        Frame::SlowLog { n: rng.next() as u32 },
        Frame::HelloAck { session: rng.next(), protocol_version: rng.next() as u32 },
        Frame::ResultSet(Box::new(WireResult {
            table: random_table(rng),
            rows_scanned: rng.next(),
            approximate: rng.chance(50),
            error_bound: if rng.chance(50) { Some(random_f64(rng)) } else { None },
            degraded: (0..rng.below(4)).map(|_| random_string(rng)).collect(),
            service_us: rng.next(),
            queue_us: rng.next(),
            query_id: rng.next(),
            trace: if rng.chance(50) { Some(random_trace(rng, 0)) } else { None },
        })),
        Frame::Error(random_wire_error(rng)),
        Frame::StatsReply { text: random_string(rng) },
        Frame::ExplainReply { text: random_string(rng) },
        Frame::OptionsAck,
        Frame::CancelAck { delivered: rng.chance(50) },
        Frame::Goodbye,
        Frame::SlowLogReply {
            entries: (0..rng.below(3)).map(|_| random_flight_record(rng)).collect(),
        },
    ]
}

/// A column of each type, 0–149 rows (so validity words run ragged),
/// NULLs in the numeric ones.
fn random_columns(rng: &mut Rng) -> Vec<Column> {
    let n = rng.below(150) as usize;
    let valid: Vec<bool> = (0..n).map(|_| !rng.chance(20)).collect();
    vec![
        Column::from_i64_opt(valid.iter().map(|&v| v.then(|| rng.next() as i64)).collect()),
        Column::from_f64_opt(
            valid.iter().map(|&v| v.then(|| f64::from_bits(rng.next()))).collect(),
        ),
        Column::from_str((0..n).map(|_| random_string(rng)).collect()),
        Column::from_bool(&(0..n).map(|_| rng.chance(50)).collect::<Vec<_>>()),
    ]
}

// --------------------------------------------------------------- driver

/// A decoder's verdict: `Err`, or `Ok` with the value re-encoded when
/// its format gives each value one encoding (`None` otherwise).
type Decoded = Result<Option<Vec<u8>>, String>;

/// One decoder under test.
struct Decoder<'a> {
    name: &'static str,
    decode: &'a dyn Fn(&[u8]) -> Decoded,
}

/// How a length field is stored.
#[derive(Clone, Copy)]
enum Width {
    U32,
    U64,
    Varint,
}

struct Run {
    seed: u64,
    case: u64,
}

fn hex(bytes: &[u8]) -> String {
    let shown: String = bytes.iter().take(96).map(|b| format!("{b:02x}")).collect();
    format!("{} bytes: {shown}{}", bytes.len(), if bytes.len() > 96 { "…" } else { "" })
}

/// `image` with `value` written over the field at `at`.
fn patched(image: &[u8], at: usize, width: Width, value: u64) -> Vec<u8> {
    let mut out = image[..at].to_vec();
    let old = match width {
        Width::U32 => {
            out.extend_from_slice(&(value.min(u32::MAX as u64) as u32).to_le_bytes());
            4
        }
        Width::U64 => {
            out.extend_from_slice(&value.to_le_bytes());
            8
        }
        Width::Varint => {
            varint::put_u64(&mut out, value);
            1 + image[at..].iter().take_while(|&&b| b & 0x80 != 0).count()
        }
    };
    out.extend_from_slice(image.get(at + old..).unwrap_or(&[]));
    out
}

impl Run {
    fn fail(&self, decoder: &str, check: &str, msg: &str) -> ! {
        panic!(
            "LAWSDB_FAULT_SEED={} case {} decoder {decoder} check {check}\n{msg}",
            self.seed, self.case
        )
    }

    /// Run `f`, turning a panic into a failure that names the input.
    fn guard<T>(&self, decoder: &str, check: &str, bytes: &[u8], f: impl FnOnce() -> T) -> T {
        catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|_| self.fail(decoder, check, &format!("panicked on {}", hex(bytes))))
    }

    /// Decode `bytes`; an `Ok` of a one-encoding format must re-encode
    /// to them.
    fn decode(&self, d: &Decoder, check: &str, bytes: &[u8]) -> Result<(), String> {
        match self.guard(d.name, check, bytes, || (d.decode)(bytes)) {
            Ok(Some(again)) if again != bytes => {
                let msg = format!("decoded {}\nre-encoded {}", hex(bytes), hex(&again));
                self.fail(d.name, check, &msg)
            }
            Ok(_) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn refused(&self, d: &Decoder, check: &str, bytes: &[u8]) {
        if self.decode(d, check, bytes).is_ok() {
            self.fail(d.name, check, &format!("accepted {}", hex(bytes)));
        }
    }

    /// Checks 1–5 on one valid image whose length fields sit at
    /// `lengths`.
    fn hostile(&self, r: &mut Rng, d: &Decoder, image: &[u8], lengths: &[(usize, Width)]) {
        if let Err(e) = self.decode(d, "valid image", image) {
            self.fail(d.name, "valid image", &format!("{e}\n{}", hex(image)));
        }
        for cut in 0..image.len() {
            self.refused(d, "strict prefix", &image[..cut]);
        }
        for _ in 0..FLIPS {
            let mut bytes = image.to_vec();
            if bytes.is_empty() {
                break;
            }
            for _ in 0..if r.chance(75) { 1 } else { 1 + r.below(4) } {
                let bit = r.below(bytes.len() as u64 * 8) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            let _ = self.decode(d, "bit flip", &bytes);
        }
        for i in 0..BLOBS {
            // Half the blobs keep a valid head, to get past magic and
            // tags into the body.
            let mut bytes = if i % 2 == 0 { Vec::new() } else { image.to_vec() };
            bytes.truncate(r.below(bytes.len() as u64 + 1) as usize);
            let n = r.below(300) as usize;
            bytes.extend(r.bytes(n));
            let _ = self.decode(d, "random blob", &bytes);
        }
        for &(at, width) in lengths {
            let claims: &[u64] = match width {
                Width::U32 => &[u32::MAX as u64],
                Width::U64 | Width::Varint => &[u32::MAX as u64, 1 << 61],
            };
            for &claim in claims {
                self.refused(d, "length claim", &patched(image, at, width, claim));
            }
        }
    }

    /// Claims written at every offset of a one-encoding image.
    fn claims_everywhere(&self, d: &Decoder, image: &[u8]) {
        for at in 0..image.len().saturating_sub(3) {
            let _ = self.decode(d, "claim sweep", &patched(image, at, Width::U32, u32::MAX as u64));
            if at + 8 <= image.len() {
                let _ = self.decode(d, "claim sweep", &patched(image, at, Width::U64, 1 << 61));
            }
        }
    }

    fn frames(&self, r: &mut Rng) {
        let decode = |b: &[u8]| -> Decoded {
            Frame::decode(b).map(|f| Some(f.encode())).map_err(|e| e.to_string())
        };
        let d = Decoder { name: "Frame::decode", decode: &decode };
        for frame in frame_corpus(r) {
            let image = frame.encode();
            match Frame::decode(&image) {
                Ok(f) if f == frame => {}
                other => self.fail(d.name, "round trip", &format!("{frame:?}\n  → {other:?}")),
            }
            // The length of the first string or list, where a frame has
            // one at a fixed offset.
            let lengths: &[(usize, Width)] = match &frame {
                Frame::Query { .. } => &[(2, Width::U32)],
                Frame::ResultSet(_)
                | Frame::StatsReply { .. }
                | Frame::ExplainReply { .. }
                | Frame::SlowLogReply { .. } => &[(1, Width::U32)],
                Frame::Error(WireError::Query { .. } | WireError::Protocol { .. }) => {
                    &[(2, Width::U32)]
                }
                _ => &[],
            };
            self.hostile(r, &d, &image, lengths);
            self.claims_everywhere(&d, &image);
        }
        // A trace nested one level past the cap, which only a hostile
        // peer sends.
        let mut trace = random_trace(r, 3);
        for _ in 0..=MAX_TRACE_DEPTH {
            trace = TraceNode { children: vec![trace], ..random_trace(r, 3) };
        }
        let deep = Frame::ResultSet(Box::new(WireResult {
            table: random_table(r),
            rows_scanned: 0,
            approximate: false,
            error_bound: None,
            degraded: Vec::new(),
            service_us: 0,
            queue_us: 0,
            query_id: 0,
            trace: Some(trace),
        }));
        self.refused(&d, "trace depth", &deep.encode());
    }

    /// `read_frame` over the corpus as one stream: it reads back, ends
    /// cleanly only at a frame boundary, and survives garbage.
    fn streams(&self, r: &mut Rng) {
        let name = "read_frame";
        let frames = frame_corpus(r);
        let mut stream = Vec::new();
        let mut bounds = vec![0];
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
            bounds.push(stream.len());
        }
        // Frames read before the stream ended, and whether it ended
        // cleanly.
        let drain = |bytes: &[u8], check: &str| -> (Vec<Frame>, bool) {
            self.guard(name, check, bytes, || {
                let mut input = bytes;
                let mut got = Vec::new();
                while let Ok(next) = read_frame(&mut input) {
                    match next {
                        Some(f) => got.push(f),
                        None => return (got, true),
                    }
                }
                (got, false)
            })
        };
        if drain(&stream, "valid stream") != (frames.clone(), true) {
            self.fail(name, "valid stream", "did not read back the frames written");
        }
        for cut in 0..stream.len() {
            let (got, clean) = drain(&stream[..cut], "strict prefix");
            let whole = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            if got[..] != frames[..whole] || clean != bounds.contains(&cut) {
                let msg = format!("cut {cut}: {} frames, clean {clean}", got.len());
                self.fail(name, "strict prefix", &msg);
            }
        }
        for (k, &at) in bounds[..frames.len()].iter().enumerate() {
            let (got, clean) =
                drain(&patched(&stream, at, Width::U32, u32::MAX as u64), "length claim");
            if clean || got[..] != frames[..k] {
                self.fail(name, "length claim", &format!("frame {k} claimed u32::MAX bytes"));
            }
        }
        for _ in 0..FLIPS {
            let mut bytes = stream.clone();
            let bit = r.below(bytes.len() as u64 * 8) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            drain(&bytes, "bit flip");
        }
        for _ in 0..BLOBS {
            let n = r.below(600) as usize;
            drain(&r.bytes(n), "random blob");
        }
    }

    fn columns(&self, r: &mut Rng) {
        let decode = |b: &[u8]| -> Decoded {
            decode_column(b).map(|c| Some(encode_column(&c))).map_err(|e| e.to_string())
        };
        let d = Decoder { name: "page::decode_column", decode: &decode };
        for col in random_columns(r) {
            // NaN payloads break `Column`'s `==`; the valid image
            // re-encoding to itself is the round trip.
            let image = encode_column(&col);
            // Row count and validity word count, then the first string's
            // length or the bool bitmap's two.
            let data = HEADER_BYTES + 8 * col.len().div_ceil(64);
            let mut lengths = vec![(1, Width::U64), (9, Width::U64)];
            match col.data_type() {
                DataType::Str if !col.is_empty() => lengths.push((data, Width::U32)),
                DataType::Bool => lengths.extend([(data, Width::U64), (data + 8, Width::U64)]),
                _ => {}
            }
            self.hostile(r, &d, &image, &lengths);
            self.claims_everywhere(&d, &image);
        }
    }

    /// A stored table of two segments (a full write, then an append's
    /// tail) on a device whose pages are flipped, scribbled, cut short
    /// or given huge length claims: recovery and `read_table` return
    /// the table as stored or an `Err`.
    fn store(&self, r: &mut Rng) {
        let name = "DurableStore::read_table";
        let base = random_table(r);
        let page_size = if r.chance(50) { 128 } else { 256 };
        let mut s = DurableStore::new(SimulatedDevice::new(page_size));
        s.recover().unwrap();
        s.store_table(&base).unwrap();
        let mut table = base.clone();
        let tail = base.slice(0, base.row_count().min(1 + r.below(3) as usize)).unwrap();
        table.append_rows(tail.columns()).unwrap();
        s.replace_table(&table).unwrap();
        let segments = &s.stored_table(table.name()).unwrap().segments;
        assert_eq!(segments.len(), 2, "the append commits a tail segment");
        let extents: Vec<_> = segments.iter().flat_map(|g| g.columns.clone()).collect();
        let device = s.into_device();
        let ps = device.page_size();
        // Recover a corrupted copy of the device and read the table.
        let read = |check: &str, corrupt: &mut dyn FnMut(&mut SimulatedDevice)| -> bool {
            let mut dev = SimulatedDevice::new(ps);
            for id in 0..device.page_count() as u64 {
                dev.allocate();
                dev.write_page(id, device.peek_page(id).unwrap()).unwrap();
            }
            corrupt(&mut dev);
            let got = self.guard(name, check, &[], || {
                let mut s = DurableStore::new(dev);
                s.recover().and_then(|_| s.read_table(table.name()))
            });
            match got {
                Ok(t) if t != table => self.fail(name, check, "read a different table"),
                got => got.is_ok(),
            }
        };
        if !read("valid image", &mut |_| {}) {
            self.fail(name, "valid image", "the stored table did not read back");
        }
        let pages = device.page_count() as u64;
        for _ in 0..FLIPS {
            let (page, bit) = (r.below(pages), r.below(ps as u64 * 8) as usize);
            read("bit flip", &mut |d| d.poke_page(page).unwrap()[bit / 8] ^= 1 << (bit % 8));
        }
        for _ in 0..BLOBS {
            let (page, blob) = (r.below(pages), r.bytes(ps));
            read("random blob", &mut |d| d.poke_page(page).unwrap().copy_from_slice(&blob));
        }
        for ext in &extents {
            let byte = |i: u64| (ext.start + i / ps as u64, (i % ps as u64) as usize);
            // A column extent cut short: every byte from `cut` on lost.
            for cut in 0..ext.byte_len {
                let lost = (cut..ext.byte_len).any(|i| {
                    let (p, o) = byte(i);
                    device.peek_page(p).unwrap()[o] != 0
                });
                let ok = read("strict prefix", &mut |d| {
                    for i in cut..ext.byte_len {
                        let (p, o) = byte(i);
                        d.poke_page(p).unwrap()[o] = 0;
                    }
                });
                if ok && lost {
                    self.fail(
                        name,
                        "strict prefix",
                        &format!("extent at page {} cut at {cut}", ext.start),
                    );
                }
            }
            // The column's row count and validity word count.
            for (at, claim) in
                [(1, u32::MAX as u64), (1, 1 << 61), (9, u32::MAX as u64), (9, 1 << 61)]
            {
                let ok = read("length claim", &mut |d| {
                    d.poke_page(ext.start).unwrap()[at..at + 8]
                        .copy_from_slice(&claim.to_le_bytes())
                });
                if ok {
                    self.fail(name, "length claim", &format!("extent at page {}", ext.start));
                }
            }
        }
    }

    fn codecs(&self, r: &mut Rng) {
        let n = r.below(200) as usize;
        let values: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64).sin() * r.below(8) as f64).collect();
        let decode = |b: &[u8]| -> Decoded {
            float::decode(b).map(|v| Some(float::encode(&v))).map_err(|e| e.to_string())
        };
        let d = Decoder { name: "float::decode", decode: &decode };
        let image = float::encode(&values);
        self.hostile(r, &d, &image, &[(0, Width::Varint)]);
        self.claims_everywhere(&d, &image);

        let predicted: Vec<f64> =
            values.iter().map(|v| v + (r.below(100) as f64 - 50.0) * 1e-3).collect();
        let decode = |b: &[u8]| -> Decoded {
            let v = residual::decode_lossless(b, &predicted).map_err(|e| e.to_string())?;
            Ok(Some(residual::encode_lossless(&v, &predicted).unwrap()))
        };
        let d = Decoder { name: "residual::decode_lossless", decode: &decode };
        let image = residual::encode_lossless(&values, &predicted).unwrap();
        self.hostile(r, &d, &image, &[(0, Width::Varint)]);
        self.claims_everywhere(&d, &image);

        let decode = |b: &[u8]| -> Decoded {
            residual::decode_quantized(b, &predicted).map(|_| None).map_err(|e| e.to_string())
        };
        let d = Decoder { name: "residual::decode_quantized", decode: &decode };
        let mut observed = values.clone();
        if let Some(v) = observed.first_mut() {
            *v = 1e300; // an exception, stored raw
        }
        let image = residual::encode_quantized(&observed, &predicted, 1e-6).unwrap();
        self.hostile(r, &d, &image, &[(0, Width::Varint)]);

        // Runs and repeats, so the LZ stage emits matches.
        let (mut data, want) = (Vec::new(), r.below(700) as usize);
        while data.len() < want {
            let n = 1 + r.below(6) as usize;
            let run = r.bytes(n);
            for _ in 0..1 + r.below(5) {
                data.extend_from_slice(&run);
            }
        }
        let decode = |b: &[u8]| -> Decoded {
            generic_decompress(b).map(|_| None).map_err(|e| e.to_string())
        };
        let d = Decoder { name: "generic_decompress", decode: &decode };
        let image = generic_compress(&data);
        if generic_decompress(&image).ok() != Some(data) {
            self.fail(d.name, "round trip", "lost bytes");
        }
        // The Huffman stage's symbol count follows its 256 code lengths.
        self.hostile(r, &d, &image, &[(256, Width::Varint)]);
    }
}
