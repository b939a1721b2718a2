//! Figure 7: retrieval throughput, energy per batch and index memory as
//! the datastore scales 100M → 1T tokens (IVF-SQ8, single CPU node).

use hermes::datagen::scale::format_tokens;
use hermes::datagen::DatastoreScale;
use hermes::metrics::{Row, Table};
use hermes::perfmodel::RetrievalModel;
use hermes_bench::emit;

fn main() {
    let model = RetrievalModel::default();
    let sizes = [
        100_000_000u64,
        1_000_000_000,
        10_000_000_000,
        100_000_000_000,
        1_000_000_000_000,
    ];

    let mut table = Table::new(
        "Figure 7 — IVF-SQ8 scaling (batch 32, nProbe 128, Xeon Gold 6448Y)",
        &["datastore", "QPS", "J/batch", "memory", "paper anchors"],
    );
    for tokens in sizes {
        let qps = model.throughput_qps(tokens, 32, 128);
        let joules = model.batch_energy(tokens, 32, 128);
        let bytes = DatastoreScale::paper(tokens).index_bytes_sq8();
        let anchor = match tokens {
            100_000_000_000 => "5.69 QPS, ~1124 J",
            1_000_000_000_000 => "~10 TB",
            _ => "-",
        };
        table.push(Row::new(
            format_tokens(tokens),
            vec![
                format!("{qps:.1}"),
                format!("{joules:.0}"),
                human_bytes(bytes),
                anchor.to_string(),
            ],
        ));
    }
    emit("fig07", &[&table]);

    println!(
        "shape check: 10x more tokens => ~10x less throughput, ~10x more\n\
         energy, ~10x more memory (all three panels are linear in size)."
    );
}

fn human_bytes(b: u64) -> String {
    if b >= 1_000_000_000_000 {
        format!("{:.1} TB", b as f64 / 1e12)
    } else if b >= 1_000_000_000 {
        format!("{:.0} GB", b as f64 / 1e9)
    } else {
        format!("{:.0} MB", b as f64 / 1e6)
    }
}
