//! # hape-storage — columnar storage substrate
//!
//! In-memory columnar tables with cheap zero-copy slicing (the unit of
//! engine-level data flow is a [`Batch`] — the paper's "packet"), dictionary
//! encoding for strings, placement tags over the server's memory nodes, and
//! the data generators used by the evaluation (uniform/shuffled join keys,
//! partition-balanced keys for the Figure 5 study, Zipf for skew tests).
//!
//! Every storage type is `Send + Sync` by construction (Arc-backed shared
//! immutable data, no interior mutability): the engine's parallel data
//! plane shares [`Column`] views, [`Batch`] packets and whole tables
//! across its worker-pool threads without copies or locks. The assertions
//! below are compile-time guarantees, not tests — losing them (e.g. by
//! introducing an `Rc` or a `Cell`) breaks the build, not CI.

#![forbid(unsafe_code)]

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<column::Column>();
    assert_send_sync::<column::ColumnData>();
    assert_send_sync::<dict::Dictionary>();
    assert_send_sync::<table::Batch>();
    assert_send_sync::<table::Table>();
    assert_send_sync::<table::Schema>();
};

pub mod column;
pub mod datagen;
pub mod dict;
pub mod table;

pub use column::{Column, ColumnData};
pub use datagen::{
    gen_balanced_partition_keys, gen_key_fk_table, gen_uniform_i32, gen_unique_keys,
    gen_zipf_i32,
};
pub use dict::Dictionary;
pub use table::{Batch, DataType, Field, Schema, Table};

/// Commonly used items.
pub mod prelude {
    pub use crate::column::{Column, ColumnData};
    pub use crate::datagen::gen_key_fk_table;
    pub use crate::table::{Batch, DataType, Field, Schema, Table};
}
