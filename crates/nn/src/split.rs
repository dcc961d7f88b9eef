//! Cut-layer model splitting — the core mechanic of split learning.
//!
//! A [`SplitNetwork`] owns a client-side and a server-side
//! [`Sequential`]. In split learning the client runs
//! `client.forward(batch)` and transmits the resulting *smashed data* (the
//! activations at the cut) to the server; the server completes the forward
//! pass, computes the loss, backpropagates to the cut, and returns the
//! *smashed gradient*, which the client feeds to `client.backward`.

use crate::{NnError, Result, Sequential};
use gsfl_tensor::io;

/// A model split into a client half and a server half at a cut layer.
#[derive(Debug, Clone)]
pub struct SplitNetwork {
    /// Layers `0..cut`, executed on the client device.
    pub client: Sequential,
    /// Layers `cut..depth`, executed on the edge server.
    pub server: Sequential,
    cut: usize,
}

impl SplitNetwork {
    /// Splits `net` at layer index `cut` (the client keeps `cut` layers).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidCut`] when `cut` exceeds the depth, or
    /// [`NnError::Config`] for degenerate cuts that would leave either side
    /// empty — split learning requires both sides to hold at least one
    /// layer.
    pub fn split(net: Sequential, cut: usize) -> Result<Self> {
        let depth = net.depth();
        if cut == 0 || cut >= depth {
            if cut >= depth {
                return Err(NnError::InvalidCut { cut, depth });
            }
            return Err(NnError::Config(
                "cut must leave at least one layer on each side".into(),
            ));
        }
        let (client, server) = net.split_at(cut)?;
        Ok(SplitNetwork {
            client,
            server,
            cut,
        })
    }

    /// The cut index this network was split at.
    pub fn cut(&self) -> usize {
        self.cut
    }

    /// Reassembles the full network (client layers then server layers).
    pub fn into_joined(self) -> Sequential {
        Sequential::join(self.client, self.server)
    }

    /// Shape of the smashed-data tensor for a given input batch shape.
    ///
    /// # Errors
    ///
    /// Propagates shape incompatibilities.
    pub fn smashed_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        self.client.output_shape(input_dims)
    }

    /// Wire size in bytes of the smashed data for a given input batch shape
    /// (identical for the returned gradient).
    ///
    /// # Errors
    ///
    /// Propagates shape incompatibilities.
    pub fn smashed_bytes(&self, input_dims: &[usize]) -> Result<u64> {
        let dims = self.smashed_shape(input_dims)?;
        Ok(io::payload_bytes(dims.iter().product()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use gsfl_tensor::Tensor;

    fn net() -> Sequential {
        let mut n = Sequential::new();
        n.push(Dense::new(4, 6, 1));
        n.push(Relu::new());
        n.push(Dense::new(6, 3, 2));
        n
    }

    #[test]
    fn split_preserves_function() {
        let mut whole = net();
        let x = Tensor::from_fn(&[2, 4], |i| (i as f32) * 0.1);
        let y = whole.forward(&x).unwrap();
        let mut s = SplitNetwork::split(net(), 2).unwrap();
        let smashed = s.client.forward(&x).unwrap();
        let y2 = s.server.forward(&smashed).unwrap();
        assert!(y2.approx_eq(&y, 1e-6));
        assert_eq!(s.cut(), 2);
    }

    #[test]
    fn degenerate_cuts_rejected() {
        assert!(SplitNetwork::split(net(), 0).is_err());
        assert!(SplitNetwork::split(net(), 3).is_err());
        assert!(SplitNetwork::split(net(), 9).is_err());
    }

    #[test]
    fn smashed_shape_and_bytes() {
        let s = SplitNetwork::split(net(), 2).unwrap();
        assert_eq!(s.smashed_shape(&[8, 4]).unwrap(), vec![8, 6]);
        assert_eq!(s.smashed_bytes(&[8, 4]).unwrap(), 4 * 8 * 6);
    }

    #[test]
    fn into_joined_round_trips() {
        let mut whole = net();
        let x = Tensor::from_fn(&[1, 4], |i| i as f32 * 0.3);
        let y = whole.forward(&x).unwrap();
        let s = SplitNetwork::split(net(), 1).unwrap();
        let mut rejoined = s.into_joined();
        assert!(rejoined.forward(&x).unwrap().approx_eq(&y, 1e-6));
    }
}
