//! `cptgen trace` — columnar-trace tooling: lossless JSONL↔`.ctb`
//! conversion (streaming record by record; neither direction ever holds
//! the full trace), header inspection, and full checksum verification.

use crate::args::{Args, Spec};
use crate::{print_ctb_written, CliError};
use cpt::trace::{is_ctb, AnyTrace, ColumnarReader, TraceWriter};

pub const CONVERT_FLAGS: Spec = "--input IN -o OUT";
/// `trace info` and `trace verify` take only the file to inspect.
pub const INPUT_FLAGS: Spec = "--input F.ctb";

pub fn convert(args: &Args) -> Result<(), CliError> {
    let input = args.require("input")?;
    let out = args.require("o")?;
    if is_ctb(input) == is_ctb(out) {
        return Err(CliError::usage(
            "trace convert goes between formats: exactly one of \
             --input/-o must end in .ctb",
        ));
    }
    let trace = AnyTrace::open(input)?;
    let streams = trace.num_streams();
    let mut w = TraceWriter::create(out, trace.generation(), streams)?;
    trace.for_each_stream(|stream| w.push(stream))?;
    match w.finish()? {
        Some(summary) => print_ctb_written(out, &summary),
        None => println!("wrote {out} ({streams} streams)"),
    }
    Ok(())
}

/// Opens the `.ctb` file `trace info|verify` was pointed at.
fn open_ctb(args: &Args, action: &str) -> Result<(String, ColumnarReader), CliError> {
    let input = args.require("input")?;
    if !is_ctb(input) {
        return Err(CliError::usage(format!(
            "trace {action} expects a .ctb file"
        )));
    }
    Ok((input.to_string(), ColumnarReader::open(input)?))
}

pub fn info(args: &Args) -> Result<(), CliError> {
    let (input, reader) = open_ctb(args, "info")?;
    let [phones, cars, tablets] = reader.device_stream_counts();
    println!("{input}: cpt-ctb v1, {:?}", reader.generation());
    println!(
        "  {} streams ({} phones, {} connected cars, {} tablets)",
        reader.num_streams(),
        phones,
        cars,
        tablets
    );
    println!(
        "  {} events in {} blocks, {} bytes, {}",
        reader.num_events(),
        reader.num_blocks(),
        reader.file_len(),
        reader.mapping()
    );
    Ok(())
}

pub fn verify(args: &Args) -> Result<(), CliError> {
    let (_, reader) = open_ctb(args, "verify")?;
    reader.verify()?;
    println!(
        "ok: {} blocks verified ({} streams, {} events)",
        reader.num_blocks(),
        reader.num_streams(),
        reader.num_events()
    );
    Ok(())
}
