//! Prometheus text exposition: rendering a [`MetricsSnapshot`] and parsing
//! one back.
//!
//! The renderer emits the subset of the text format scrapers understand —
//! `# TYPE` comments, one sample per line, histogram `_bucket{le=…}` /
//! `_sum` / `_count` series — plus one leading comment carrying the
//! snapshot's coherence flag. A histogram's `le` bounds are the inclusive
//! upper bounds of its non-empty [`Histogram`] buckets (so every value
//! below 64 reads exactly), and two extra samples, `_min` and `_max`, carry
//! its exact extremes; other scrapers read them as untyped series. The
//! parser inverts it exactly: for every snapshot, `parse(render(s)) == s`
//! (a registry-wide property test), so a scrape is a lossless transport of
//! the registry state, not a lossy pretty-print. `f64` gauges round-trip
//! through Rust's shortest-exact `Display` / `parse` pair.

use std::fmt::Write;

use asgd_metrics::histogram::{bucket_bounds, bucket_of, Histogram, BUCKETS};

use crate::registry::MetricsSnapshot;

/// Renders a snapshot in Prometheus text exposition format.
#[must_use]
pub fn render(snap: &MetricsSnapshot) -> String {
    // Writing into a `String` cannot fail.
    let mut out = String::new();
    let _ = writeln!(out, "# asgd-telemetry coherent={}", snap.coherent);
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "# TYPE {} counter\n{name} {v}", base_name(name));
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "# TYPE {} gauge\n{name} {v}", base_name(name));
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(out, "# TYPE {} histogram", base_name(name));
        let (mut cum, count) = (0, h.total());
        for (i, n) in h.iter().filter(|&(i, _)| i < BUCKETS - 1) {
            cum += n;
            let le = bucket_bounds(i).1;
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "{name}_sum {}\n{name}_count {count}", h.sum());
        if let (Some(min), Some(max)) = (h.min(), h.max()) {
            let _ = writeln!(out, "{name}_min {min}\n{name}_max {max}");
        }
    }
    out
}

/// The metric name with any label block stripped (what `# TYPE` lines name).
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// A typed exposition-parse failure, pointing at the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exposition parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A histogram under assembly from its series.
#[derive(Default)]
struct OpenHist {
    name: String,
    /// `(bucket, cumulative count)` per finite `le`, in line order.
    cums: Vec<(usize, u64)>,
    count: Option<u64>,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl OpenHist {
    /// Folds in one sample; `series` is an `le` bound or a series suffix.
    fn apply(&mut self, series: &str, value: &str) -> Result<(), &'static str> {
        let int = || value.parse::<u64>().map_err(|_| "bad histogram sample");
        match series {
            "_sum" => self.sum = value.parse().map_err(|_| "bad histogram sample")?,
            "_min" => self.min = Some(int()?),
            "_max" => self.max = Some(int()?),
            "_count" | "+Inf" => {
                let n = int()?;
                if self.count.is_some_and(|c| c != n) {
                    return Err("+Inf bucket disagrees with _count");
                }
                self.count = Some(n);
            }
            le => {
                let le = le.parse().map_err(|_| "bad bucket bound")?;
                let i = bucket_of(le);
                if i == BUCKETS - 1 || bucket_bounds(i).1 != le {
                    return Err("le is not a bucket bound");
                }
                self.cums.push((i, int()?));
            }
        }
        Ok(())
    }

    /// Appends the assembled histogram to `out`, once its cumulative
    /// counts check out.
    fn finish(self, out: &mut Vec<(String, Histogram)>) -> Result<(), &'static str> {
        let mut counts = vec![0; BUCKETS];
        let (mut last, mut below) = (None, 0);
        for (i, cum) in self.cums {
            if last >= Some(i) {
                return Err("bucket bounds out of order");
            }
            counts[i] = cum.checked_sub(below).ok_or("cumulative count fell")?;
            (last, below) = (Some(i), cum);
        }
        let total = self.count.unwrap_or(below);
        counts[BUCKETS - 1] = total.checked_sub(below).ok_or("cumulative count fell")?;
        let h = match (self.min, self.max) {
            _ if total == 0 => Histogram::new(),
            (Some(min), Some(max)) if min <= max => {
                Histogram::from_parts(counts, self.sum, min, max)
            }
            _ => return Err("non-empty histogram without an ordered _min and _max"),
        };
        out.push((self.name, h));
        Ok(())
    }
}

/// Parses exposition text produced by [`render`] back into a snapshot.
///
/// # Errors
///
/// [`ParseError`] on any line that is neither a comment nor a well-formed
/// sample, on out-of-order or inconsistent histogram series, on an `le`
/// that is not a [`Histogram`] bucket bound, and on unparseable numbers.
pub fn parse(text: &str) -> Result<MetricsSnapshot, ParseError> {
    let mut snap = MetricsSnapshot::default();
    // name → declared type, from # TYPE lines.
    let mut types = std::collections::BTreeMap::new();
    let mut open: Option<OpenHist> = None;
    let err = |line: usize, message: &str| ParseError {
        line,
        message: message.to_string(),
    };
    let mut lineno = 0;
    for (i, raw) in text.lines().enumerate() {
        lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# asgd-telemetry coherent=") {
            snap.coherent = rest.parse().map_err(|_| err(lineno, "bad coherent flag"))?;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next(), it.next());
            let (Some(name), Some(kind)) = (name, kind) else {
                return Err(err(lineno, "malformed TYPE comment"));
            };
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal and ignored
        }
        // A sample: everything before the last space is the name (labels may
        // embed spaces only inside quotes, which our names never do).
        let Some(split_at) = line.rfind(' ') else {
            return Err(err(lineno, "sample line without a value"));
        };
        let (name, value) = (line[..split_at].trim_end(), line[split_at + 1..].trim());
        let series_kind = |name: &str| types.get(base_name(name)).map(String::as_str);
        // `_sum`, `_count`, `_min` and `_max` name a histogram series only
        // under a histogram TYPE; any other name ending so is a plain sample.
        let hist = hist_series(name).filter(|&(base, series)| {
            !series.starts_with('_') || series_kind(base) == Some("histogram")
        });
        if let Some((base, series)) = hist {
            if series_kind(base) != Some("histogram") {
                return Err(err(lineno, "bucket series without a histogram TYPE"));
            }
            // A bucket line for another histogram starts it; every other
            // series belongs to the histogram whose buckets came before.
            if !series.starts_with('_') && open.as_ref().is_none_or(|h| h.name != base) {
                let name = base.to_string();
                if let Some(h) = open.replace(OpenHist {
                    name,
                    ..OpenHist::default()
                }) {
                    h.finish(&mut snap.histograms).map_err(|m| err(lineno, m))?;
                }
            }
            let Some(h) = open.as_mut().filter(|h| h.name == base) else {
                return Err(err(lineno, "histogram series before its buckets"));
            };
            h.apply(series, value).map_err(|m| err(lineno, m))?;
            continue;
        }
        if let Some(h) = open.take() {
            h.finish(&mut snap.histograms).map_err(|m| err(lineno, m))?;
        }
        match series_kind(name) {
            Some("counter") => {
                let v = value
                    .parse()
                    .map_err(|_| err(lineno, "bad counter value"))?;
                snap.counters.push((name.to_string(), v));
            }
            Some("gauge") => {
                let v = value.parse().map_err(|_| err(lineno, "bad gauge value"))?;
                snap.gauges.push((name.to_string(), v));
            }
            Some(_) | None => return Err(err(lineno, "sample without a known TYPE")),
        }
    }
    if let Some(h) = open {
        h.finish(&mut snap.histograms).map_err(|m| err(lineno, m))?;
    }
    Ok(snap)
}

/// Splits a histogram series name into its base name and series: the
/// `le` of a `_bucket{le="…"}` line, or the `_sum`, `_count`, `_min` or
/// `_max` suffix.
fn hist_series(name: &str) -> Option<(&str, &str)> {
    if let Some((base, rest)) = name.split_once("_bucket{le=\"") {
        return Some((base, rest.strip_suffix("\"}")?));
    }
    ["_sum", "_count", "_min", "_max"]
        .into_iter()
        .find_map(|suffix| Some((name.strip_suffix(suffix)?, suffix)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            coherent: true,
            counters: vec![
                ("asgd_net_accepted_total".to_string(), 12),
                (
                    "asgd_shard_updates{model=\"m\",shard=\"0\"}".to_string(),
                    900,
                ),
            ],
            gauges: vec![
                ("asgd_ingest_queue_depth{model=\"m\"}".to_string(), 3.0),
                ("asgd_net_shed_tier".to_string(), 1.5),
            ],
            histograms: vec![(
                "asgd_serve_latency_ns".to_string(),
                Histogram::from_iter([3, 1000, 1000, 4000, 4000, 4000, 1 << 50]),
            )],
        }
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let text = render(&sample_snapshot());
        assert!(text.starts_with("# asgd-telemetry coherent=true\n"));
        assert!(text.contains("# TYPE asgd_net_accepted_total counter"));
        assert!(text.contains("asgd_net_accepted_total 12"));
        assert!(text.contains("# TYPE asgd_shard_updates counter"));
        assert!(text.contains("asgd_shard_updates{model=\"m\",shard=\"0\"} 900"));
        // Values below 64 read exactly; 1000 and 4000 land in the
        // sub-buckets 992..=1007 and 3968..=4031; 2^50 only in +Inf.
        assert!(text.contains("asgd_serve_latency_ns_bucket{le=\"3\"} 1\n"));
        assert!(text.contains("asgd_serve_latency_ns_bucket{le=\"1007\"} 3\n"));
        assert!(text.contains("asgd_serve_latency_ns_bucket{le=\"4031\"} 6\n"));
        assert!(text.contains("asgd_serve_latency_ns_bucket{le=\"+Inf\"} 7\n"));
        assert!(text.contains("asgd_serve_latency_ns_sum 1125899906856627\n"));
        assert!(text.contains("asgd_serve_latency_ns_count 7\n"));
        assert!(text.contains("asgd_serve_latency_ns_min 3\n"));
        assert!(text.contains("asgd_serve_latency_ns_max 1125899906842624\n"));
        assert!(text.contains("asgd_net_shed_tier 1.5"));
    }

    #[test]
    fn parse_inverts_render() {
        let snap = sample_snapshot();
        assert_eq!(parse(&render(&snap)).expect("parses"), snap);
        let incoherent = MetricsSnapshot {
            coherent: false,
            ..sample_snapshot()
        };
        assert_eq!(parse(&render(&incoherent)).unwrap(), incoherent);
        assert_eq!(
            parse(&render(&MetricsSnapshot::default())).unwrap(),
            MetricsSnapshot::default()
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("no_type_declared 4\n").is_err());
        assert!(parse("# TYPE x counter\nx not_a_number\n").is_err());
        assert!(
            parse("# TYPE h histogram\nh_sum 3\n").is_err(),
            "_sum before buckets"
        );
        assert!(parse("# TYPE x counter\nx\n").is_err(), "no value");
        // Unknown comments are fine, and so are plain samples whose names
        // merely end like histogram series.
        assert_eq!(
            parse("# HELP x whatever\n").unwrap(),
            MetricsSnapshot::default()
        );
        assert_eq!(
            parse("# TYPE x_count counter\nx_count 2\n")
                .unwrap()
                .counters,
            vec![("x_count".to_string(), 2)]
        );
    }

    #[test]
    fn parse_rejects_histograms_render_never_writes() {
        let parse_err = |body: &str| {
            parse(&format!("# TYPE h histogram\n{body}"))
                .map(|_| ())
                .expect_err(body)
        };
        let e = parse_err("h_bucket{le=\"1000\"} 1\n");
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "le is not a bucket bound")
        );
        let e = parse_err("h_bucket{le=\"7\"} 2\nh_bucket{le=\"5\"} 3\n");
        assert_eq!(e.message, "bucket bounds out of order");
        let e = parse_err("h_bucket{le=\"5\"} 2\nh_bucket{le=\"7\"} 1\n");
        assert_eq!(e.message, "cumulative count fell");
        let e = parse_err("h_bucket{le=\"5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n");
        assert_eq!(e.message, "+Inf bucket disagrees with _count");
        let e = parse_err("h_bucket{le=\"5\"} 2\nh_count 2\n");
        assert_eq!(
            e.message,
            "non-empty histogram without an ordered _min and _max"
        );
        let e = parse_err("h_bucket{le=\"5\"} 2\nh_count 2\nh_min 5\nh_max 4\n");
        assert_eq!(
            e.message,
            "non-empty histogram without an ordered _min and _max"
        );
    }
}
