//! Quickstart: describe a join-and-aggregate query against named columns
//! on a [`hape::core::Session`], inspect its placed plan with `explain`
//! (segments, traits, and the Router / MemMove / DeviceCrossing exchanges
//! derived from them), run it in all three placements, and watch the hybrid
//! configuration beat both.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hape::core::{ExecConfig, JoinAlgo, Placement, Query, Session};
use hape::ops::{col, AggFunc};
use hape::sim::topology::Server;
use hape::storage::datagen::gen_key_fk_table;

fn main() {
    // The paper's testbed: 2×12-core Xeon + 2× GTX 1080 (simulated).
    let mut session = Session::new(Server::paper_testbed());

    // A fact table of 4M rows joined against a 64K-row dimension.
    session.register_as("fact", gen_key_fk_table(1 << 22, 1 << 22, 7));
    session.register_as("dim", gen_key_fk_table(1 << 16, 1 << 16, 8));

    // Named columns; the engine lowers this to build/stream pipelines with
    // positional indices and pushed-down projections.
    let query = session
        .query("quickstart")
        .from_table("fact")
        .join(Query::scan("dim"), "k", "k", JoinAlgo::Partitioned)
        .agg(vec![(AggFunc::Count, col("k")), (AggFunc::Sum, col("v"))]);

    // The placement pass makes the paper's trait conversions explicit:
    // `explain` renders each stage's segments with their HetTraits and
    // every exchange operator derived from them.
    println!("{}", session.explain(&query).expect("quickstart query places"));

    println!("placement   time        CPU-pkts GPU-pkts  H2D bytes   result(count)");
    for placement in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid] {
        let rep = session
            .execute_with(&query, &ExecConfig::new(placement))
            .expect("quickstart query runs");
        println!(
            "{:<11} {:<11} {:<8} {:<8} {:<11} {}",
            format!("{placement:?}"),
            format!("{}", rep.time),
            rep.packets_cpu,
            rep.packets_gpu,
            rep.h2d_bytes,
            rep.rows[0].1[0],
        );
    }
}
