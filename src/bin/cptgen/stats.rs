//! `cptgen stats` — summary statistics of one trace, in a single pass.

use crate::args::{Args, Spec};
use crate::CliError;
use cpt::metrics::{accumulate_reader, FlowLenKind, StreamAccumulator};
use cpt::statemachine::StateMachine;
use cpt::trace::stats::Ecdf;
use cpt::trace::{AnyTrace, DatasetSummary};

pub const FLAGS: Spec = "--input TRACE";

pub fn run(args: &Args) -> Result<(), CliError> {
    let trace = AnyTrace::open(args.require("input")?)?;
    let machine = StateMachine::for_generation(trace.generation());
    // The two format-specific lines. A .ctb's header line comes off its
    // index before any stream is decoded, and its fold is
    // `accumulate_reader`'s; a JSONL file's is counted during the fold,
    // which also pools its interarrivals — O(events) memory by definition,
    // so that line is deliberately skipped out of core.
    let mut interarrivals = Vec::new();
    let acc = match trace {
        AnyTrace::Ctb(reader) => {
            let [phones, cars, tablets] = reader.device_stream_counts();
            println!(
                "{} streams, {} events ({} phones, {} connected cars, {} tablets); \
                 {} blocks, {} bytes, {}",
                reader.num_streams(),
                reader.num_events(),
                phones,
                cars,
                tablets,
                reader.num_blocks(),
                reader.file_len(),
                reader.mapping()
            );
            accumulate_reader(&machine, &reader)?
        }
        jsonl => {
            let mut acc = StreamAccumulator::new();
            let mut summary = DatasetSummary::default();
            jsonl.for_each_stream(|stream| {
                acc.observe(&machine, stream);
                summary.observe(stream);
                interarrivals.extend(stream.interarrivals().into_iter().skip(1));
                Ok(())
            })?;
            println!("{summary}");
            acc
        }
    };
    let v = acc.violations();
    println!(
        "semantic violations: {:.4}% of {} events, {:.2}% of {} streams",
        v.event_rate() * 100.0,
        v.events_checked,
        v.stream_rate() * 100.0,
        v.streams_checked
    );
    println!("event-type breakdown:");
    for (et, frac) in acc.breakdown() {
        if frac > 0.0 {
            println!("  {:<12} {:>7.3}%", et.to_string(), frac * 100.0);
        }
    }
    let ecdf = acc.flow_ecdf(FlowLenKind::All);
    if !ecdf.is_empty() {
        println!(
            "flow length: p50 {:.0}, p90 {:.0}, p99 {:.0}, max {:.0}",
            ecdf.quantile(0.5),
            ecdf.quantile(0.9),
            ecdf.quantile(0.99),
            ecdf.quantile(1.0)
        );
    }
    if !interarrivals.is_empty() {
        let e = Ecdf::new(interarrivals);
        println!(
            "interarrival seconds: p50 {:.2}, p90 {:.2}, p99 {:.2}",
            e.quantile(0.5),
            e.quantile(0.9),
            e.quantile(0.99)
        );
    }
    Ok(())
}
