//! Output: the result line the driver reads, the by-name listing people
//! read, and the Chrome-trace file of the traced window.

use std::io::Write;
use std::path::Path;

use crate::measure::Outcome;
use crate::run::Span;

/// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(def, value)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", def.name, def.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Every metric by name with its unit, then what went wrong, if anything.
pub fn listing(outcome: &Outcome) -> String {
    let mut s = format!("# {}\n", outcome.header);
    for (def, value) in outcome.metrics.iter() {
        s.push_str(&format!("{:<36} {:>14.3} {}\n", def.name, value, def.unit));
    }
    s.push_str(&format!(
        "attempted {} failed {} checks_failed {}\n",
        outcome.attempted,
        outcome.failed,
        outcome.problems.len()
    ));
    for p in &outcome.problems {
        s.push_str(&format!("PROBLEM {p}\n"));
    }
    s
}

/// Write the traced window as Chrome-trace JSON (load it in
/// `chrome://tracing` or Perfetto): one complete event per span, one
/// track per client, `args` carrying the transaction and parent span.
pub fn write_trace(path: &Path, spans: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut first = true;
    for (client, list) in spans.iter().enumerate() {
        for (i, s) in list.iter().enumerate() {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{client},\"args\":{{\"txn\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.start_us,
                s.dur_us,
                s.txn,
                i + 1,
                s.parent
            )?;
        }
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}
