//! Edge-list I/O in the SNAP text format used by the paper's datasets.
//!
//! Each line is `src dst time [duration]`, separated by ASCII
//! whitespace (space, tab, form feed; a trailing `\r` is trimmed, so
//! CRLF files load too); fields past the fourth are ignored, and lines
//! whose first non-blank byte is `#` or `%` are comments. Node ids may
//! be arbitrary u64 values; they are compacted to dense ids on load
//! (first-appearance order), matching how SNAP datasets are normally
//! preprocessed.
//!
//! The reader is a byte-level tokenizer: it reads the input in
//! fixed-size 64 KiB chunks, carrying a partial last line over to the
//! next chunk, splits on `\n` and parses integer fields straight from
//! the bytes, with no per-line allocation and no UTF-8 validation. Comment lines may hold any bytes; a data field
//! that is not ASCII is a [`GraphError::Parse`] on its line. Only a
//! timestamp that is not an integer takes the slower float path.
//! Endpoints are compacted as each line is parsed, straight into the
//! event list the graph is built from.

use crate::builder::TemporalGraphBuilder;
use crate::error::{GraphError, Result};
use crate::event::Event;
use crate::graph::TemporalGraph;
use crate::ids::Time;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

/// Bytes requested per read. A line longer than this grows the buffer
/// to hold it; the buffer never holds more than one chunk plus one line.
const READ_CHUNK_BYTES: usize = 1 << 16;

/// Parses a SNAP-style edge list from any reader.
///
/// Self-loops are skipped (real SNAP dumps contain a few), node ids are
/// compacted, events are sorted by time.
pub fn read_edge_list<R: Read>(reader: R) -> Result<TemporalGraph> {
    read_chunked(reader, READ_CHUNK_BYTES)
}

/// [`read_edge_list`] with an explicit chunk size.
fn read_chunked<R: Read>(mut reader: R, chunk_bytes: usize) -> Result<TemporalGraph> {
    let mut parser = LineParser::default();
    let mut buf = vec![0u8; chunk_bytes.max(1)];
    // `buf[..carry]` is the partial line left over from the last chunk.
    let mut carry = 0usize;
    loop {
        if buf.len() - carry < chunk_bytes {
            buf.resize(carry + chunk_bytes.max(1), 0);
        }
        let n = match reader.read(&mut buf[carry..]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let filled = carry + n;
        // Complete lines end at the chunk's last newline; the rest is
        // carried over.
        match buf[carry..filled].iter().rposition(|&b| b == b'\n') {
            Some(last) => {
                let end = carry + last;
                for line in buf[..end].split(|&b| b == b'\n') {
                    parser.line(line)?;
                }
                buf.copy_within(end + 1..filled, 0);
                carry = filled - end - 1;
            }
            None => carry = filled,
        }
    }
    if carry > 0 {
        parser.line(&buf[..carry])?;
    }
    parser.finish()
}

/// Ids below this index a direct table; sparser ids go through a map.
const DIRECT_IDS: u64 = 1 << 20;

/// Per-line parse state: the line counter, the id compaction and the
/// events parsed so far.
#[derive(Default)]
struct LineParser {
    lineno: usize,
    /// `direct[id]` is `dense + 1` for a seen id below [`DIRECT_IDS`],
    /// `0` for an unseen one.
    direct: Vec<u32>,
    sparse: HashMap<u64, u32>,
    num_ids: u32,
    events: Vec<Event>,
}

impl LineParser {
    /// Parses one line (without its `\n`).
    fn line(&mut self, line: &[u8]) -> Result<()> {
        self.lineno += 1;
        let mut fields = Fields(line);
        let first = match fields.next() {
            None => return Ok(()),
            Some(f) if f[0] == b'#' || f[0] == b'%' => return Ok(()),
            Some(f) => f,
        };
        let lineno = self.lineno;
        let src = parse_id(Some(first), lineno, "source node")?;
        let dst = parse_id(fields.next(), lineno, "target node")?;
        let time = parse_time(fields.next(), lineno)?;
        let duration = match fields.next() {
            Some(tok) => parse_unsigned(tok)
                .and_then(|d| u32::try_from(d).ok())
                .ok_or_else(|| invalid(lineno, "duration", tok))?,
            None => 0,
        };
        let (src, dst) = (self.dense(src), self.dense(dst));
        self.events.push(Event::with_duration(src, dst, time, duration));
        Ok(())
    }

    /// The dense id of `id`, assigned in first-appearance order.
    #[inline]
    fn dense(&mut self, id: u64) -> u32 {
        let next = self.num_ids;
        let dense = if id < DIRECT_IDS {
            let slot = id as usize;
            if slot >= self.direct.len() {
                self.direct.resize((slot + 1).next_power_of_two(), 0);
            }
            if self.direct[slot] == 0 {
                self.direct[slot] = next + 1;
            }
            self.direct[slot] - 1
        } else {
            *self.sparse.entry(id).or_insert(next)
        };
        self.num_ids += (dense == next) as u32;
        dense
    }

    fn finish(self) -> Result<TemporalGraph> {
        if self.events.is_empty() {
            return Err(GraphError::Empty);
        }
        TemporalGraphBuilder::from_events(self.events).skip_self_loops(true).build()
    }
}

/// The ASCII-whitespace-separated fields of a line.
struct Fields<'a>(&'a [u8]);

impl<'a> Iterator for Fields<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = self.0.trim_ascii_start();
        if rest.is_empty() {
            return None;
        }
        let end = rest.iter().position(|b| b.is_ascii_whitespace()).unwrap_or(rest.len());
        self.0 = &rest[end..];
        Some(&rest[..end])
    }
}

/// A run of ASCII digits as a `u64`; `None` if empty, not all digits,
/// or out of range.
#[inline]
fn parse_digits(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    let mut v = 0u64;
    // 19 digits cannot overflow a u64; longer runs check every step.
    if digits.len() <= 19 {
        for &b in digits {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                return None;
            }
            v = v * 10 + d as u64;
        }
    } else {
        for &b in digits {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                return None;
            }
            v = v.checked_mul(10)?.checked_add(d as u64)?;
        }
    }
    Some(v)
}

/// An optionally `+`-signed decimal, as `u64::from_str` accepts it.
#[inline]
fn parse_unsigned(tok: &[u8]) -> Option<u64> {
    parse_digits(tok.strip_prefix(b"+").unwrap_or(tok))
}

/// An optionally signed decimal, as `i64::from_str` accepts it.
#[inline]
fn parse_i64(tok: &[u8]) -> Option<i64> {
    match tok.strip_prefix(b"-") {
        Some(digits) => {
            let mag = parse_digits(digits)?;
            (mag <= i64::MIN.unsigned_abs()).then(|| (mag as i64).wrapping_neg())
        }
        None => parse_unsigned(tok).and_then(|v| i64::try_from(v).ok()),
    }
}

fn invalid(line: usize, what: &str, tok: &[u8]) -> GraphError {
    GraphError::Parse {
        line,
        message: format!("invalid {what} `{}`", String::from_utf8_lossy(tok)),
    }
}

fn parse_id(tok: Option<&[u8]>, line: usize, what: &str) -> Result<u64> {
    let tok = tok.ok_or_else(|| GraphError::Parse { line, message: format!("missing {what}") })?;
    parse_unsigned(tok).ok_or_else(|| invalid(line, what, tok))
}

/// Timestamps may appear as integers or floats (Copenhagen dumps use
/// floats); floats are truncated to whole seconds.
fn parse_time(tok: Option<&[u8]>, line: usize) -> Result<Time> {
    let tok = tok.ok_or_else(|| GraphError::Parse { line, message: "missing timestamp".into() })?;
    if let Some(t) = parse_i64(tok) {
        return Ok(t);
    }
    match std::str::from_utf8(tok).ok().and_then(|s| s.parse::<f64>().ok()) {
        Some(f) if f.is_finite() => Ok(f.trunc() as Time),
        _ => Err(invalid(line, "timestamp", tok)),
    }
}

/// Loads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<TemporalGraph> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Parses an edge list from an in-memory string (handy in tests/examples).
pub fn read_edge_list_str(s: &str) -> Result<TemporalGraph> {
    read_edge_list(s.as_bytes())
}

/// Writes the graph in the same text format (durations included only when
/// non-zero). The output round-trips through [`read_edge_list`].
pub fn write_edge_list<W: Write>(graph: &TemporalGraph, writer: W) -> Result<()> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "# temporal edge list: src dst time [duration]")?;
    for e in graph.events() {
        if e.duration == 0 {
            writeln!(out, "{} {} {}", e.src, e.dst, e.time)?;
        } else {
            writeln!(out, "{} {} {} {}", e.src, e.dst, e.time, e.duration)?;
        }
    }
    out.flush()?;
    Ok(())
}

/// Writes the graph to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &TemporalGraph, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, file)
}

/// Writes an event slice as a self-describing **binary block**
/// ([`wire::encode_events`](crate::wire::encode_events)): a magic +
/// version + record-count header followed by fixed-width records, node
/// ids taken **literally**.
///
/// Unlike the [`write_edge_list`] / [`read_edge_list`] pair — which
/// compacts node ids on load and re-sorts events — the
/// [`read_events_raw`] round-trip preserves node ids, event order, and
/// durations exactly. That exactness is the contract the
/// [shard store](crate::shard::ShardStore) relies on to map slice-local
/// event indices back to parent-graph indices after a spill/reload
/// cycle, and the contract the distributed workers rely on when a shard
/// file crosses a process boundary.
pub fn write_events_raw<W: Write>(events: &[crate::event::Event], writer: W) -> Result<()> {
    let mut out = BufWriter::new(writer);
    out.write_all(&crate::wire::encode_events(events))?;
    out.flush()?;
    Ok(())
}

/// Reads a block written by [`write_events_raw`]: node ids are literal
/// `u32` values (no compaction), records are kept in file order (no
/// sort). An empty block is not an error — emptiness is the caller's
/// policy here.
///
/// The block's record-count header is **validated against the bytes
/// actually present before any allocation**
/// ([`wire::decode_events`](crate::wire::decode_events)): a truncated
/// or corrupt shard file — now also arriving from other processes —
/// fails with [`GraphError::Decode`] instead of attempting an
/// OOM-sized `Vec` or returning silently short data.
pub fn read_events_raw<R: Read>(reader: R) -> Result<Vec<crate::event::Event>> {
    let mut buf = Vec::new();
    BufReader::new(reader).read_to_end(&mut buf)?;
    Ok(crate::wire::decode_events(&buf)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    /// The line-at-a-time `str` reader the byte tokenizer replaced, kept
    /// as the differential oracle: it defines the expected events,
    /// durations, node count and error line numbers for ASCII input.
    fn oracle(input: &str) -> Result<TemporalGraph> {
        use std::io::BufRead;
        fn field<T: std::str::FromStr>(tok: Option<&str>, line: usize, what: &str) -> Result<T> {
            let tok =
                tok.ok_or_else(|| GraphError::Parse { line, message: format!("missing {what}") })?;
            tok.parse::<T>()
                .map_err(|_| GraphError::Parse { line, message: format!("invalid {what} `{tok}`") })
        }
        let mut raw: Vec<(u64, u64, Time)> = Vec::new();
        let mut durations: Vec<u32> = Vec::new();
        for (lineno, line) in input.as_bytes().lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut it = trimmed.split_whitespace();
            let src = field::<u64>(it.next(), lineno + 1, "source node")?;
            let dst = field::<u64>(it.next(), lineno + 1, "target node")?;
            let tok = it.next().ok_or_else(|| GraphError::Parse {
                line: lineno + 1,
                message: "missing timestamp".into(),
            })?;
            let time = match (tok.parse::<i64>(), tok.parse::<f64>()) {
                (Ok(t), _) => t,
                (_, Ok(f)) if f.is_finite() => f.trunc() as Time,
                _ => {
                    return Err(GraphError::Parse {
                        line: lineno + 1,
                        message: format!("invalid timestamp `{tok}`"),
                    })
                }
            };
            let duration = match it.next() {
                Some(tok) => field::<u32>(Some(tok), lineno + 1, "duration")?,
                None => 0,
            };
            raw.push((src, dst, time));
            durations.push(duration);
        }
        if raw.is_empty() {
            return Err(GraphError::Empty);
        }
        let (mut events, _names) = crate::builder::compact_node_ids(&raw);
        for (ev, d) in events.iter_mut().zip(durations) {
            ev.duration = d;
        }
        TemporalGraphBuilder::from_events(events).skip_self_loops(true).build()
    }

    /// Both readers' outcome in one comparable form.
    fn outcome(r: Result<TemporalGraph>) -> std::result::Result<(Vec<Event>, u32), String> {
        r.map(|g| (g.events().to_vec(), g.num_nodes())).map_err(|e| e.to_string())
    }

    /// A reader that hands out at most `n` bytes per `read` call.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(self.1).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// Xorshift64 source for the generated documents.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn pick(&mut self, options: &[&str]) -> String {
            options[self.below(options.len() as u64) as usize].to_string()
        }

        fn id(&mut self) -> String {
            match self.below(6) {
                0 => (u64::MAX - self.below(3)).to_string(),
                1 => format!("+{}", self.below(8)),
                _ => self.below(8).to_string(),
            }
        }

        fn time(&mut self) -> String {
            match self.below(8) {
                0 => format!("-{}", self.below(1000)),
                1 => format!("+{}", self.below(1000)),
                2 => format!("{}.{}", self.below(1000), self.below(100)),
                3 => format!("-{}.5", self.below(100)),
                _ => self.below(1000).to_string(),
            }
        }
    }

    /// A seeded random SNAP-style document: comments, blank lines, CRLF,
    /// tabs, signed and float timestamps, durations, extra fields,
    /// self-loops, sparse ids near `u64::MAX`, and now and then a bad
    /// token.
    fn random_document(seed: u64) -> String {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut doc = String::new();
        for _ in 0..1 + rng.below(40) {
            let line = match rng.below(20) {
                0 => rng.pick(&["# comment", "% comment 1 2 3", "   # indented", "#"]),
                1 => rng.pick(&["", "   ", "\t", " \t "]),
                _ => {
                    let src = rng.id();
                    let dst = if rng.below(10) == 0 { src.clone() } else { rng.id() };
                    let mut fields = vec![src, dst, rng.time()];
                    match rng.below(6) {
                        0 => fields.push(rng.below(50).to_string()),
                        1 => fields.extend([rng.below(50).to_string(), "extra".to_string()]),
                        _ => {}
                    }
                    if rng.below(25) == 0 {
                        // One corrupt field: bad digits, a bare sign, an
                        // out-of-range duration, or a missing column.
                        let at = rng.below(fields.len() as u64) as usize;
                        match rng.below(4) {
                            0 => fields[at] = "x1".into(),
                            1 => fields[at] = "-".into(),
                            2 => fields.push("4294967296".into()),
                            _ => fields.truncate(at.min(2)),
                        }
                    }
                    let sep = rng.pick(&[" ", "  ", "\t", " \t"]);
                    format!("{}{}", rng.pick(&["", "", " ", "\t"]), fields.join(&sep))
                }
            };
            doc.push_str(&line);
            doc.push_str(if rng.below(4) == 0 { "\r\n" } else { "\n" });
        }
        if rng.below(3) == 0 {
            doc.pop(); // no newline after the last line
        }
        doc
    }

    #[test]
    fn byte_reader_matches_str_oracle() {
        let (mut loaded, mut failed) = (0, 0);
        for seed in 0..400u64 {
            let doc = random_document(seed);
            let expect = outcome(oracle(&doc));
            match &expect {
                Ok(_) => loaded += 1,
                Err(_) => failed += 1,
            }
            assert_eq!(outcome(read_edge_list_str(&doc)), expect, "seed {seed}:\n{doc}");
            for chunk in [1, 2, 3, 5, 8, 13, 64] {
                let got = outcome(read_chunked(doc.as_bytes(), chunk));
                assert_eq!(got, expect, "seed {seed}, chunk {chunk}");
            }
        }
        // The generator must exercise both outcomes.
        assert!(loaded > 100 && failed > 20, "loaded {loaded}, failed {failed}");
    }

    #[test]
    fn every_chunk_boundary_and_short_read_agrees() {
        let doc =
            "# header\r\n100 200 10 3\r\n\n 200\t100 -15\n+7 100 1.5 0 x\n300 300 2\n300 100 12";
        let expect = outcome(oracle(doc));
        assert!(expect.is_ok(), "{expect:?}");
        for chunk in 1..=doc.len() + 1 {
            assert_eq!(outcome(read_chunked(doc.as_bytes(), chunk)), expect, "chunk {chunk}");
            let short = Trickle(doc.as_bytes(), chunk);
            assert_eq!(outcome(read_edge_list(short)), expect, "reads of {chunk} bytes");
        }
        // An error line number survives every cut too.
        let bad = "1 2 3\n# c\n\n4 5 6\n7 8 nine\n";
        for chunk in 1..=bad.len() + 1 {
            let err = read_chunked(bad.as_bytes(), chunk).unwrap_err();
            assert!(matches!(err, GraphError::Parse { line: 5, .. }), "chunk {chunk}: {err}");
        }
    }

    #[test]
    fn non_utf8_comments_load() {
        let g = read_edge_list(&b"# caf\xe9\n1 2 3\n% \xff\xfe\n2 3 4\n"[..]).unwrap();
        assert_eq!(g.num_events(), 2);
    }

    #[test]
    fn non_ascii_data_tokens_are_parse_errors() {
        let err = read_edge_list(&b"1 2 3\n1 \xff 4\n"[..]).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("target node"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = read_edge_list_str("1 2 3\n# ok\n1 2 4\u{e9}\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }), "{err}");
    }

    #[test]
    fn crlf_and_tabs() {
        let g = read_edge_list_str("1\t2\t10\r\n2 \t 1  11 5\r\n").unwrap();
        assert_eq!(g.num_events(), 2);
        assert_eq!(g.events()[1].duration, 5);
    }

    #[test]
    fn parse_basic_edge_list() {
        let g = read_edge_list_str(
            "# comment\n\
             % another comment\n\
             100 200 10\n\
             200 100 15\n\
             \n\
             300 100 12\n",
        )
        .unwrap();
        assert_eq!(g.num_events(), 3);
        assert_eq!(g.num_nodes(), 3);
        // Sorted by time: 10, 12, 15.
        let times: Vec<_> = g.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![10, 12, 15]);
    }

    #[test]
    fn parse_durations() {
        let g = read_edge_list_str("1 2 10 30\n2 1 50\n").unwrap();
        assert_eq!(g.events()[0].duration, 30);
        assert_eq!(g.events()[1].duration, 0);
    }

    #[test]
    fn parse_float_timestamps() {
        let g = read_edge_list_str("1 2 10.75\n2 3 11.2\n").unwrap();
        assert_eq!(g.events()[0].time, 10);
        assert_eq!(g.events()[1].time, 11);
    }

    #[test]
    fn self_loops_skipped() {
        let g = read_edge_list_str("1 1 5\n1 2 6\n").unwrap();
        assert_eq!(g.num_events(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = read_edge_list_str("1 2 10\nxyz 2 11\n").unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("source node"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = read_edge_list_str("1 2\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn empty_input_is_error() {
        assert!(matches!(read_edge_list_str("# only comments\n"), Err(GraphError::Empty)));
    }

    #[test]
    fn roundtrip() {
        let g = read_edge_list_str("5 6 100 7\n6 5 120\n9 5 130\n").unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.num_events(), g2.num_events());
        assert_eq!(g.num_nodes(), g2.num_nodes());
        for (a, b) in g.events().iter().zip(g2.events()) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.duration, b.duration);
        }
    }

    #[test]
    fn raw_roundtrip_preserves_ids_and_order() {
        use crate::event::Event;
        // Ties on time with descending node ids: a compacting reader
        // would relabel and a sorting reader would permute these.
        let events = vec![
            Event::new(9u32, 2u32, 5),
            Event::new(3u32, 9u32, 5),
            Event::with_duration(2u32, 3u32, 7, 11),
        ];
        let mut buf = Vec::new();
        write_events_raw(&events, &mut buf).unwrap();
        let back = read_events_raw(buf.as_slice()).unwrap();
        assert_eq!(back, events);
        let mut empty = Vec::new();
        write_events_raw(&[], &mut empty).unwrap();
        assert!(read_events_raw(empty.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn raw_rejects_truncated_and_corrupt_blocks() {
        use crate::event::Event;
        let events = vec![Event::new(1u32, 2u32, 5), Event::new(2u32, 1u32, 6)];
        let mut buf = Vec::new();
        write_events_raw(&events, &mut buf).unwrap();
        // Cut mid-record: the count header claims more than is present,
        // and the reader must say so instead of under-reading.
        assert!(matches!(
            read_events_raw(&buf[..buf.len() - 3]),
            Err(GraphError::Decode(crate::wire::WireError::Truncated { .. }))
        ));
        // An inflated count header fails validation before allocation.
        let mut bomb = buf.clone();
        bomb[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_events_raw(bomb.as_slice()), Err(GraphError::Decode(_))));
        // Trailing bytes after the declared records are garbage.
        let mut padded = buf.clone();
        padded.push(0);
        assert!(matches!(
            read_events_raw(padded.as_slice()),
            Err(GraphError::Decode(crate::wire::WireError::TrailingBytes { .. }))
        ));
        // The old text format is no longer a valid block.
        assert!(matches!(read_events_raw("1 2 5\n".as_bytes()), Err(GraphError::Decode(_))));
    }

    #[test]
    fn node_compaction_on_load() {
        let g = read_edge_list_str("1000000 2000000 1\n2000000 1000000 2\n").unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.events()[0].src, NodeId(0));
    }
}
