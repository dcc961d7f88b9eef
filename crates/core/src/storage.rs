//! Server-side storage accounting.
//!
//! The paper's core motivation for grouping (§I): a naive hybrid of FL and
//! SL equips *every client* with its own server-side model, so the edge
//! server stores N replicas; GSFL stores only M (one per group). This
//! module quantifies that.

use crate::scheme::SchemeKind;

/// Bytes of model state resident on the edge server for a scheme.
///
/// * CL — the full model (and the pooled dataset, not counted here),
/// * FL — the global full model,
/// * SL — one server-side model,
/// * SFL — one server-side model **per client**,
/// * GSFL — one server-side model **per group**.
pub fn server_storage_bytes(
    kind: SchemeKind,
    clients: usize,
    groups: usize,
    server_side_bytes: u64,
    full_model_bytes: u64,
) -> u64 {
    match kind {
        SchemeKind::Centralized | SchemeKind::Federated => full_model_bytes,
        SchemeKind::VanillaSplit => server_side_bytes,
        SchemeKind::SplitFed => server_side_bytes * clients as u64,
        SchemeKind::Gsfl => server_side_bytes * groups as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gsfl_stores_m_replicas_sfl_stores_n() {
        let sfl = server_storage_bytes(SchemeKind::SplitFed, 30, 6, 1000, 5000);
        let gsfl = server_storage_bytes(SchemeKind::Gsfl, 30, 6, 1000, 5000);
        let sl = server_storage_bytes(SchemeKind::VanillaSplit, 30, 6, 1000, 5000);
        assert_eq!(sfl, 30_000);
        assert_eq!(gsfl, 6_000);
        assert_eq!(sl, 1_000);
        assert!(gsfl < sfl);
    }

    #[test]
    fn fl_and_cl_store_full_model() {
        assert_eq!(
            server_storage_bytes(SchemeKind::Federated, 30, 6, 1000, 5000),
            5000
        );
        assert_eq!(
            server_storage_bytes(SchemeKind::Centralized, 30, 6, 1000, 5000),
            5000
        );
    }
}
