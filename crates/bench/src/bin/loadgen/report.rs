//! The metric catalogue (every name a run may print, with its unit), the
//! result a run fills in, and the hand-written JSON emitter and parser
//! the result travels through.
//!
//! The catalogue is the single source of the names: `--list` prints it,
//! the README's tables and `BENCHMARK.json` are asserted equal to it.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the reference median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
    /// Two runs of one seed must agree on this value to the last bit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Client-observed metrics, measured with tracing off. Every workload
/// reports every one (see the README for what each means on each).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("read_qps", "1/s", Higher, 0.20),
    e2e("read_p50_us", "us", Lower, 0.15),
    e2e("read_p99_us", "us", Lower, 0.25),
    e2e("write_batches_per_s", "1/s", Higher, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("write_p99_us", "us", Lower, 0.25),
    e2e("recover_s", "s", Lower, 0.25),
    MetricDef {
        name: "store_bytes_per_live_byte",
        unit: "ratio",
        better: Lower,
        bound: 0.03,
        exact: true,
    },
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Single-layer metrics from the traced pass, named `crate.module.what`.
pub const PER_LAYER: &[MetricDef] = &[
    // The read round trip and what it is made of.
    layer("net.client.roundtrip_us", "us", Lower),
    layer("net.proto.request_encode_ns", "ns", Lower),
    layer("net.frame.request_decode_ns", "ns", Lower),
    layer("net.proto.answer_encode_ns", "ns", Lower),
    layer("net.frame.answer_decode_ns", "ns", Lower),
    layer("net.server.residual_us", "us", Lower),
    layer("net.client.beside_write_p50_us", "us", Lower),
    layer("net.client.beside_write_p99_us", "us", Lower),
    exact("net.request_bytes", "B", Lower),
    exact("net.answer_bytes", "B", Lower),
    exact("net.apply_bytes", "B", Lower),
    layer("net.client.connect_us", "us", Lower),
    layer("net.server.start_ms", "ms", Lower),
    layer("core.engine.reader_snapshot_ns", "ns", Lower),
    layer("core.engine.run_hit_ns", "ns", Lower),
    layer("core.engine.run_topk_miss_us", "us", Lower),
    layer("core.engine.run_cov_miss_us", "us", Lower),
    layer("core.engine.run_cov_hit_us", "us", Lower),
    exact("core.engine.memo_hit_ratio", "ratio", Higher),
    // Evaluation work per non-hit query, as counts.
    exact("core.eval.nodes_per_miss", "count", Lower),
    exact("core.eval.tested_per_miss", "count", Lower),
    exact("core.eval.pruned_per_miss", "count", Higher),
    exact("core.eval.dist_checks_per_miss", "count", Lower),
    exact("core.eval.prune_ratio", "ratio", Higher),
    exact("core.topk.relaxations_per_miss", "count", Lower),
    layer("core.topk.search_us", "us", Lower),
    layer("core.eval.masks_us_per_facility", "us", Lower),
    layer("core.maxcov.table_build_us", "us", Lower),
    layer("core.maxcov.greedy_us", "us", Lower),
    // The apply round trip and what it is made of.
    layer("net.client.apply_roundtrip_us", "us", Lower),
    layer("net.proto.apply_encode_us", "us", Lower),
    layer("net.frame.apply_decode_us", "us", Lower),
    layer("net.server.apply_residual_us", "us", Lower),
    layer("core.writer.hop_us", "us", Lower),
    layer("core.writer.busy_frac", "frac", Lower),
    layer("core.writer.queued_p99_us", "us", Lower),
    layer("core.writer.worst_batch_ms", "ms", Lower),
    layer("core.engine.apply_compute_us", "us", Lower),
    layer("core.engine.apply_us_per_kuser", "us", Lower),
    layer("core.engine.apply_durable_us", "us", Lower),
    layer("core.wire.batch_encode_us", "us", Lower),
    layer("store.wal.append_us", "us", Lower),
    exact("store.wal.bytes_per_event", "B", Lower),
    layer("store.wal.appends", "count", Lower),
    layer("store.snapshot.checkpoint_ms", "ms", Lower),
    exact("store.snapshot.bytes", "B", Lower),
    layer("store.snapshot.checkpoints", "count", Lower),
    layer("store.snapshot.bootstrap_ms", "ms", Lower),
    layer("store.recover.open_ms", "ms", Lower),
    layer("core.persist.decode_ms", "ms", Lower),
    layer("core.persist.replay_ms", "ms", Lower),
    exact("store.recover.wal_records", "count", Lower),
    layer("store.crc.ns_per_kib", "ns", Lower),
    layer("repl.hub.publish_ns", "ns", Lower),
    layer("repl.hub.shipped_records", "count", Lower),
    exact("repl.hub.lag_epochs_end", "count", Lower),
    exact("repl.hub.overflow_drops", "count", Lower),
    // Set-up, split.
    layer("datagen.generate_ms", "ms", Lower),
    layer("core.tqtree.build_ms", "ms", Lower),
    layer("core.engine.warm_ms", "ms", Lower),
    exact("core.tqtree.nodes", "count", Lower),
    exact("core.tqtree.depth", "count", Lower),
    // The instruments themselves.
    layer("obs.scrape_us", "us", Lower),
    layer("trace.overhead_frac", "frac", Lower),
    layer("loadgen.queue_wait_us", "us", Lower),
    layer("loadgen.late_us_max", "us", Lower),
    layer("loadgen.backlog_max", "count", Lower),
];

pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values in the order they were set.
    pub metrics: Vec<(&'static str, f64)>,
    /// The fold of the bits of every distinct answer of the read phase.
    /// Equal seeds give equal digests. (The answers after the ingest phase
    /// are checked too, but against a state that depends on how many
    /// batches the run got through, so they are not part of it.)
    pub answer_digest: u64,
    /// Free-form lines for the human reader: sample counts, highest
    /// supported percentiles, waterfalls, check outcomes.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// One failed check: counted as attempted and failed, and explained.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED CHECK: {}", what()));
        }
    }

    /// The result line of the benchmark contract: exactly the catalogue's
    /// metrics for this mode, in catalogue order.
    pub fn contract_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, def) in catalogue(self.trace).iter().enumerate() {
            let value = self
                .get(def.name)
                .unwrap_or_else(|| panic!("metric {} was never measured", def.name));
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i > 0 { ", " } else { "" },
                json_string(def.name),
                json_number(value),
                json_string(def.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, then the notes.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} ({}) ==\n",
            self.workload,
            if self.trace {
                "traced pass, per-layer"
            } else {
                "untraced pass, end-to-end"
            }
        );
        for def in catalogue(self.trace) {
            if let Some(v) = self.get(def.name) {
                let _ = writeln!(out, "  {:<36} {:>16.4} {}", def.name, v, def.unit);
            }
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>16}",
            "failed_ops",
            format!("{}/{}", self.failed, self.attempted)
        );
        let _ = writeln!(out, "  {:<36} {:>16x}", "answer_digest", self.answer_digest);
        for note in &self.notes {
            for line in note.lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }
}

/// Who produced a result file: the things a number must be read with.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub commit: String,
    pub nproc: usize,
    pub seed: u64,
    pub seconds: f64,
    pub flush_policy: &'static str,
}

/// The stamped result document written under `--out`.
pub fn result_document(stamp: &Stamp, result: &RunResult) -> String {
    format!(
        "{{\"workload\": {}, \"trace\": {}, \"commit\": {}, \"nproc\": {}, \"seed\": {}, \
         \"seconds\": {}, \"flush_policy\": {}, \"answer_digest\": {}, \"result\": {}}}\n",
        json_string(&result.workload),
        result.trace,
        json_string(&stamp.commit),
        stamp.nproc,
        stamp.seed,
        json_number(stamp.seconds),
        json_string(stamp.flush_policy),
        json_string(&format!("{:016x}", result.answer_digest)),
        result.contract_line()
    )
}

/// `--list`: every workload and every metric name with its unit.
pub fn list(workloads: &[(&str, &str)]) -> String {
    let mut out = String::from("workloads:\n");
    for (name, why) in workloads {
        let _ = writeln!(out, "  {name:<14} {why}");
    }
    for (title, defs) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        let _ = writeln!(out, "{title} metrics:");
        for def in defs {
            let _ = writeln!(
                out,
                "  {:<36} {:<6} better={}{}",
                def.name,
                def.unit,
                def.better.as_str(),
                if def.exact { " exact" } else { "" }
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// JSON, by hand (the workspace has no serde)
// ---------------------------------------------------------------------------

/// A JSON string literal for `s`, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit the `f64` has.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "JSON has no spelling for {v}");
    // `{:?}` is the shortest text that reads back as the same bits and,
    // unlike `{}`, keeps a marker ("1.0", "1e21") that it is a float.
    format!("{v:?}")
}

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parses one JSON document. Strict enough for what this program emits
/// and for `BENCHMARK.json`; errors name the byte offset.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.at));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unknown literal at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.at)),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.at)),
                    }
                }
            }
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Number)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at offset {}", self.at))?;
                            self.at += 4;
                            let c = char::from_u32(hex)
                                .ok_or_else(|| format!("lone surrogate at offset {}", self.at))?;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at offset {}", self.at)),
                    }
                }
                b => out.push(b),
            }
        }
    }
}

/// A contract result line, read back.
#[derive(Debug, Clone)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl ResultLine {
    pub fn parse(line: &str) -> Result<ResultLine, String> {
        let doc = parse_json(line)?;
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| format!("result line lacks \"{name}\""))
        };
        let count = |name: &str| {
            field(name)?
                .as_f64()
                .map(|v| v as u64)
                .ok_or_else(|| format!("\"{name}\" is not a number"))
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or("\"metrics\" is not an object")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name} has no numeric value"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResultLine {
            correct: field("correct")?
                .as_bool()
                .ok_or("\"correct\" is not a boolean")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_escapes_and_round_trips() {
        let nasty = "quote\" back\\slash\nnew\ttab\r\u{1}ctl é 漢 end";
        let lit = json_string(nasty);
        assert!(lit.contains("\\\"") && lit.contains("\\\\") && lit.contains("\\n"));
        assert!(lit.contains("\\u0001"));
        assert!(!lit.contains('\n'), "a literal stays on one line");
        assert_eq!(parse_json(&lit).unwrap(), Json::String(nasty.to_string()));

        // Numbers keep every digit.
        for v in [0.1 + 0.2, 1.0, 1e21, 1.2034e-7, 123456789.12345679, -0.0] {
            let back = parse_json(&json_number(v)).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_catalogue_and_parses_back() {
        for trace in [false, true] {
            let mut r = RunResult {
                workload: "w".into(),
                trace,
                attempted: 1000,
                failed: 0,
                ..RunResult::default()
            };
            for (i, def) in catalogue(trace).iter().enumerate() {
                r.set(def.name, 1.5 + i as f64 / 7.0);
            }
            let line = r.contract_line();
            assert!(!line.contains('\n'));
            let back = ResultLine::parse(&line).unwrap();
            assert!(back.correct);
            assert_eq!((back.attempted, back.failed), (1000, 0));
            let metrics = &back.metrics;
            let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            let want: Vec<&str> = catalogue(trace).iter().map(|d| d.name).collect();
            assert_eq!(names, want);
            assert_eq!(metrics[1].1.to_bits(), (1.5f64 + 1.0 / 7.0).to_bits());

            let top = parse_json(&line).unwrap();
            let keys: Vec<&str> = top
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let unit = top
                .get("metrics")
                .unwrap()
                .get(want[0])
                .unwrap()
                .get("unit")
                .unwrap();
            assert_eq!(unit.as_str(), Some(catalogue(trace)[0].unit));

            r.check(false, || "injected".into());
            let back = ResultLine::parse(&r.contract_line()).unwrap();
            assert!(!back.correct);
            assert_eq!((back.attempted, back.failed), (1001, 1));
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "\"open",
            "tru",
            "{\"a\":1} x",
            "1.2.3",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} parsed");
        }
        let doc =
            parse_json(" {\"a\": [1, -2.5e3, true, null, {\"b\": \"c\"}], \"d\": {}} ").unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[4].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(doc.get("d"), Some(&Json::Object(vec![])));
    }

    #[test]
    fn names_follow_the_benchmark_contract() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} is used twice", def.name);
            assert!(
                def.name.len() <= 64 && def.name.chars().next().unwrap().is_ascii_alphanumeric()
            );
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }
}
