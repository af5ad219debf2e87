//! Bit-exact fingerprints of the per-image spectral fit.
//!
//! `qnc compress` (and the server's ENCODE without a model id) fits a
//! fresh model to every image: the tile second-moment matrix, its
//! Jacobi eigendecomposition (`qn_linalg::sym_eig`) and the Clements
//! decomposition of the resulting rotation. The golden vectors pin one
//! fitted image; these checksums pin 64 of them at two operating points,
//! plus the raw eigensolver output on fixed matrices, so any change to
//! the fit that moves a single bit of a model fails here by name.
//!
//! Like the golden vectors, the constants hold for one libm: the blob
//! generator and the decomposition call `exp`/`atan2`, whose last ulp
//! may differ across platforms.

use qn::codec::{bitstream, model, Codec};
use qn::image::datasets;
use qn::linalg::{sym_eig::sym_eig, Matrix};

/// FNV-1a over the concatenated `.qnm` bytes of the fits at
/// (tile 4, d 8) and (tile 8, d 16).
const FIT_T4_D8: u64 = 0xb571a28c60eaee0d;
const FIT_T8_D16: u64 = 0x5055dfe6cf320259;
/// FNV-1a over the eigenvalue and eigenvector bits of every matrix in
/// [`eig_matrices`].
const SYM_EIG_BITS: u64 = 0x332747f588e8523b;

/// FNV-1a over the models fitted to 64 seeded 32×32 blob images.
fn fit_fingerprint(tile: usize, latent: usize) -> u64 {
    let mut bytes = Vec::new();
    for img in datasets::grayscale_blobs(64, 32, 32, 0x5eed) {
        let codec = Codec::spectral_for_image(&img, tile, latent).expect("spectral fit");
        bytes.extend_from_slice(&model::encode_model(codec.model()));
    }
    bitstream::fnv1a64(&bytes)
}

/// Fixed symmetric inputs: a smooth kernel, a diagonal with a repeated
/// eigenvalue (exercises the zero-rotation skip), a rank-3 16×16 Gram
/// matrix and a dense indefinite 16×16.
fn eig_matrices() -> Vec<Matrix> {
    let kernel = Matrix::from_fn(6, 6, |i, j| (-(i as f64 - j as f64).abs() / 2.0).exp());
    let diag = Matrix::from_diag(&[2.0, -1.0, 2.0, 0.0, 5.0]);
    let tall = Matrix::from_fn(3, 16, |i, j| ((i * 16 + j) as f64 * 0.37).sin());
    let rank3 = tall.gram();
    let dense = Matrix::from_fn(16, 16, |i, j| {
        let (a, b) = (i.min(j) as f64, i.max(j) as f64);
        (a * 1.3 + b * 0.7).cos() / (1.0 + a + b)
    });
    vec![kernel, diag, rank3, dense]
}

fn eig_fingerprint() -> u64 {
    let mut bytes = Vec::new();
    for a in eig_matrices() {
        let e = sym_eig(&a).expect("symmetric input");
        for v in e.eigenvalues.iter().chain(e.eigenvectors.data()) {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    bitstream::fnv1a64(&bytes)
}

#[test]
fn spectral_fit_models_are_bit_stable() {
    let t4 = fit_fingerprint(4, 8);
    assert_eq!(t4, FIT_T4_D8, "tile 4, d 8: {t4:#018x}");
    let t8 = fit_fingerprint(8, 16);
    assert_eq!(t8, FIT_T8_D16, "tile 8, d 16: {t8:#018x}");
}

#[test]
fn sym_eig_output_bits_are_stable() {
    let rank3 = &eig_matrices()[2];
    let e = sym_eig(rank3).unwrap();
    assert!(
        e.eigenvalues[3..].iter().all(|l| l.abs() < 1e-10),
        "rank-3 input"
    );
    let bits = eig_fingerprint();
    assert_eq!(bits, SYM_EIG_BITS, "{bits:#018x}");
}
