//! Lowering is pinned byte for byte: for every TPC-H and behavioral query
//! the engine ships, the lowered plan, the derived catalog (each table's
//! name with its schema's field names) and the build fingerprints hash to
//! fixed digests. A refactor of `hape_core::query` must leave all three
//! unchanged — optimize, place and run then see no difference. A mismatch
//! prints the full strings, so the diff is readable.

use hape::core::{Catalog, JoinAlgo, Query};
use hape::tpch::events::{behavioral_queries, events_catalog, generate_events};
use hape::tpch::queries::{base_catalog, q1_query, q5_query, q6_query, q9_query};

/// FNV-1a, 64-bit: a digest that is stable across toolchains and runs.
fn fnv1a(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The three pinned renderings of `q` lowered against `catalog`: the plan,
/// the derived catalog's tables with their fields, and the fingerprints.
fn renderings(q: &Query, catalog: &Catalog) -> [String; 3] {
    let lowered = q.lower(catalog).unwrap_or_else(|e| panic!("{}: {e}", q.name));
    let mut tables: Vec<String> = lowered
        .catalog
        .names()
        .into_iter()
        .map(|name| {
            let fields = &lowered.catalog.expect(name).schema.fields;
            let fields: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
            format!("{name}({})", fields.join(","))
        })
        .collect();
    tables.sort();
    let mut fingerprints: Vec<String> =
        lowered.build_fingerprints.iter().map(|(ht, fp)| format!("{ht} => {fp}")).collect();
    fingerprints.sort();
    [format!("{:?}", lowered.plan), tables.join("\n"), fingerprints.join("\n")]
}

#[test]
fn lowering_output_is_pinned_for_every_shipped_query() {
    let tpch = base_catalog(&hape::tpch::generate(0.002, 4242));
    let events = events_catalog(&generate_events(200, 7171));
    let mut cases: Vec<(Query, &Catalog)> = vec![
        (q1_query(), &tpch),
        (q5_query(JoinAlgo::Partitioned), &tpch),
        (q5_query(JoinAlgo::NonPartitioned), &tpch),
        (q6_query(), &tpch),
        (q9_query(JoinAlgo::Partitioned), &tpch),
        (q9_query(JoinAlgo::NonPartitioned), &tpch),
    ];
    cases.extend(behavioral_queries().into_iter().map(|q| (q, &events)));
    // (plan, catalog, fingerprints) digests, in `cases` order.
    let pinned: [[u64; 3]; 10] = [
        [0xedcbc9ae5dbc03f2, 0xc4e7d5314f7c65e2, 0xcbf29ce484222325],
        [0x0ac5609c26b6794c, 0x679cc10ef0550c16, 0xbab31a1935af808b],
        [0x3b2899dda269d526, 0x679cc10ef0550c16, 0x7ae668b06d3c42c1],
        [0x566550028ea17024, 0x23bb0e4c8c20b205, 0xcbf29ce484222325],
        [0x760640ec710d0f2d, 0xe8903e402686b4bb, 0x4e89270a4383f72c],
        [0xd1e352f3af3f7661, 0xe8903e402686b4bb, 0x00934c303ee4a287],
        [0x0b71baa354e7290c, 0xea035aa922b58e24, 0xcbf29ce484222325],
        [0xff078ea5bcf23811, 0xf75399330d2d6305, 0xcbf29ce484222325],
        [0xb95f216e3e5ccbdf, 0xf75399330d2d6305, 0xcbf29ce484222325],
        [0xbcbad87f53200444, 0xf75399330d2d6305, 0xcbf29ce484222325],
    ];
    let mut diverged = Vec::new();
    for ((q, catalog), want) in cases.iter().zip(pinned) {
        let got = renderings(q, catalog);
        for ((what, text), want) in
            ["plan", "catalog", "fingerprints"].iter().zip(&got).zip(want)
        {
            let digest = fnv1a(text);
            if digest != want {
                diverged.push(format!(
                    "{}/{what}: digest {digest:#018x}, pinned {want:#018x}\n{text}",
                    q.name
                ));
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "lowering diverged from the pin:\n\n{}",
        diverged.join("\n\n")
    );
}
