//! Spectral (PCA-optimal) initialisation — extension A3.
//!
//! The trash-penalty compression loss is minimised exactly when `U_C`
//! rotates the dataset's top-d principal subspace onto the kept basis
//! states: the residual is then the energy outside the top-d eigenspace of
//! the second-moment matrix `Σ_i ψ_i ψ_iᵀ` (the PCA bound, Eckart–Young).
//! That optimal rotation is an explicit orthogonal matrix, and the
//! Clements decomposition (`qn-photonic::clements`) converts it *exactly*
//! into beam-splitter angles — so the network can start at the optimum
//! instead of descending to it.
//!
//! The trailing ±1 sign diagonal that the rigid mesh cannot express is
//! dropped; sign flips do not change any `|amplitude|²`, so the
//! compression loss (and the subsequent retraining of `U_R`) is
//! unaffected.

use crate::config::SubspaceKind;
use crate::Result;
use qn_linalg::{sym_eig, Matrix};
use qn_photonic::clements::clements_decompose;
use qn_photonic::{Mesh, MeshLayer};

/// Second-moment matrix `S = Σ_i ψ_i ψ_iᵀ` of encoded samples.
///
/// Only the upper triangle is accumulated, one contiguous row slice per
/// nonzero amplitude, then mirrored. That is bit-identical to summing
/// the full matrix: `xᵢxⱼ = xⱼxᵢ` exactly, and the products the full
/// sum adds where only the *other* amplitude is zero are `±0`, which
/// leave an accumulator that starts at `+0` unchanged.
fn second_moment(inputs: &[Vec<f64>], dim: usize) -> Matrix {
    let mut s = vec![0.0; dim * dim];
    for x in inputs {
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = &mut s[i * dim + i..(i + 1) * dim];
            for (acc, &xj) in row.iter_mut().zip(&x[i..]) {
                *acc += xi * xj;
            }
        }
    }
    for i in 1..dim {
        for j in 0..i {
            s[i * dim + j] = s[j * dim + i];
        }
    }
    Matrix::from_vec(dim, dim, s).expect("dim × dim by construction")
}

/// The PCA-optimal compression rotation: an orthogonal `U` whose rows map
/// the top-d principal directions onto the kept basis states and the
/// remaining directions onto the trash states.
///
/// # Errors
/// Propagates eigensolver failures.
pub fn pca_rotation(
    inputs: &[Vec<f64>],
    dim: usize,
    compressed_dim: usize,
    subspace: SubspaceKind,
) -> Result<Matrix> {
    let s = second_moment(inputs, dim);
    let eig = sym_eig::sym_eig(&s)?;
    // Row r of U = eigenvector assigned to output dimension r.
    // Kept dims receive the top-d eigenvectors (largest eigenvalues).
    let kept: Vec<usize> = match subspace {
        SubspaceKind::KeepLast => (dim - compressed_dim..dim).collect(),
        SubspaceKind::KeepFirst => (0..compressed_dim).collect(),
    };
    let mut u = Matrix::zeros(dim, dim);
    let mut next_top = 0; // next principal index for kept rows
    let mut next_rest = compressed_dim; // remaining eigenvectors for trash rows
    for r in 0..dim {
        let eig_idx = if kept.contains(&r) {
            let i = next_top;
            next_top += 1;
            i
        } else {
            let i = next_rest;
            next_rest += 1;
            i
        };
        for c in 0..dim {
            u.set(r, c, eig.eigenvectors.get(c, eig_idx));
        }
    }
    Ok(u)
}

/// Build a mesh initialised at the PCA-optimal rotation via the Clements
/// decomposition, padded with identity layers to at least `min_layers`.
///
/// # Errors
/// Propagates decomposition failures.
pub fn spectral_mesh(
    inputs: &[Vec<f64>],
    dim: usize,
    compressed_dim: usize,
    subspace: SubspaceKind,
    min_layers: usize,
) -> Result<Mesh> {
    let u = pca_rotation(inputs, dim, compressed_dim, subspace)?;
    let seq = clements_decompose(&u, 1e-8)?;
    let (mesh, _signs) = Mesh::from_sequence_packed(&seq);
    if mesh.n_layers() >= min_layers {
        return Ok(mesh);
    }
    let mut layers: Vec<MeshLayer> = mesh.layers().to_vec();
    for _ in mesh.n_layers()..min_layers {
        layers.push(MeshLayer::zeros(dim));
    }
    Ok(Mesh::from_layers(layers))
}

/// The PCA lower bound on the summed compression loss: the total energy
/// outside the top-d eigenspace, `Σ_{k>d} λ_k` of the second-moment
/// matrix. No unitary compression can do better on this dataset.
///
/// # Errors
/// Propagates eigensolver failures.
pub fn compression_loss_lower_bound(
    inputs: &[Vec<f64>],
    dim: usize,
    compressed_dim: usize,
) -> Result<f64> {
    let s = second_moment(inputs, dim);
    let eig = sym_eig::sym_eig(&s)?;
    Ok(eig
        .eigenvalues
        .iter()
        .skip(compressed_dim)
        .map(|&l| l.max(0.0))
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression::CompressionNetwork;
    use crate::config::CompressionTargetKind;
    use crate::encoding;
    use qn_image::datasets;

    fn encoded_inputs(data: &[qn_image::GrayImage]) -> Vec<Vec<f64>> {
        encoding::encode_images(data, 16)
            .unwrap()
            .into_iter()
            .map(|e| e.amplitudes)
            .collect()
    }

    #[test]
    fn pca_rotation_is_orthogonal() {
        let inputs = encoded_inputs(&datasets::paper_binary_16(25));
        let u = pca_rotation(&inputs, 16, 4, SubspaceKind::KeepLast).unwrap();
        assert!(u.is_orthogonal(1e-9));
    }

    #[test]
    fn spectral_init_achieves_pca_bound_on_rank4_data() {
        // Exactly rank-4 data: the bound is ~0 and spectral init hits it.
        let data = datasets::low_rank_binary(25, 4, 4, 4, 21);
        let inputs = encoded_inputs(&data);
        let bound = compression_loss_lower_bound(&inputs, 16, 4).unwrap();
        assert!(bound < 1e-12, "bound {bound}");
        let mesh = spectral_mesh(&inputs, 16, 4, SubspaceKind::KeepLast, 12).unwrap();
        let net = CompressionNetwork::new(
            mesh,
            4,
            SubspaceKind::KeepLast,
            CompressionTargetKind::TrashPenalty,
        )
        .unwrap();
        let loss = net.loss(&inputs);
        assert!(loss.sum < 1e-12, "spectral loss {}", loss.sum);
    }

    #[test]
    fn spectral_init_matches_bound_on_full_rank_data() {
        let data = datasets::paper_binary_16(25);
        let inputs = encoded_inputs(&data);
        let bound = compression_loss_lower_bound(&inputs, 16, 4).unwrap();
        assert!(bound > 0.0); // structured glyphs add off-subspace energy
        let mesh = spectral_mesh(&inputs, 16, 4, SubspaceKind::KeepLast, 12).unwrap();
        let net = CompressionNetwork::new(
            mesh,
            4,
            SubspaceKind::KeepLast,
            CompressionTargetKind::TrashPenalty,
        )
        .unwrap();
        let loss = net.loss(&inputs);
        assert!(
            (loss.sum - bound).abs() < 1e-8,
            "spectral loss {} vs bound {bound}",
            loss.sum
        );
    }

    #[test]
    fn spectral_mesh_pads_to_min_layers() {
        let inputs = encoded_inputs(&datasets::paper_binary_16(25));
        let mesh = spectral_mesh(&inputs, 16, 4, SubspaceKind::KeepLast, 40).unwrap();
        assert_eq!(mesh.n_layers(), 40);
    }

    #[test]
    fn keep_first_subspace_works_too() {
        let data = datasets::low_rank_binary(25, 4, 4, 4, 22);
        let inputs = encoded_inputs(&data);
        let mesh = spectral_mesh(&inputs, 16, 4, SubspaceKind::KeepFirst, 12).unwrap();
        let net = CompressionNetwork::new(
            mesh,
            4,
            SubspaceKind::KeepFirst,
            CompressionTargetKind::TrashPenalty,
        )
        .unwrap();
        assert!(net.loss(&inputs).sum < 1e-12);
    }

    #[test]
    fn bound_is_monotone_in_d() {
        let inputs = encoded_inputs(&datasets::paper_binary_16(25));
        let b2 = compression_loss_lower_bound(&inputs, 16, 2).unwrap();
        let b4 = compression_loss_lower_bound(&inputs, 16, 4).unwrap();
        let b8 = compression_loss_lower_bound(&inputs, 16, 8).unwrap();
        assert!(b2 >= b4 && b4 >= b8);
        let b16 = compression_loss_lower_bound(&inputs, 16, 16).unwrap();
        assert!(b16.abs() < 1e-12);
    }
}
