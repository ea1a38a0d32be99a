//! Helpers shared by the integration tests (`mod common;`).

use hape::core::QueryReport;

/// Assert everything a report exposes is identical between two runs — the
/// bit-identity the thread-count and serving sweeps both promise.
pub fn assert_reports_identical(got: &QueryReport, want: &QueryReport, ctx: &str) {
    assert_eq!(got.rows, want.rows, "{ctx}: rows");
    assert_eq!(got.time, want.time, "{ctx}: makespan");
    assert_eq!(got.cpu_busy, want.cpu_busy, "{ctx}: cpu busy");
    assert_eq!(got.gpu_busy, want.gpu_busy, "{ctx}: gpu busy");
    assert_eq!(got.h2d_bytes, want.h2d_bytes, "{ctx}: h2d bytes");
    assert_eq!(got.packets_cpu, want.packets_cpu, "{ctx}: cpu packets");
    assert_eq!(got.packets_gpu, want.packets_gpu, "{ctx}: gpu packets");
}
