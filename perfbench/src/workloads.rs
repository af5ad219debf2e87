//! The three workloads: their inputs (generated from the seed), the
//! offline references every reply is checked against, the fixed
//! offered-rate ladders and latency limits, and the set-up each run
//! times.

use crate::loadgen::Target;
use crate::stats::{sub_seed, Rng};
use qn_codec::model::encode_model;
use qn_codec::{Codec, CodecOptions};
use qn_image::{datasets, metrics, GrayImage};
use qn_serve::client::{model_encode_request, spectral_encode_request};
use qn_serve::protocol::{image_to_payload, EncodeRequest, Frame, Opcode};
use qn_serve::{spawn, Client, ServerConfig, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tile edge and kept latent dimension: the `qnc` defaults.
pub const TILE: usize = 4;
pub const LATENT: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SpectralSmall,
    ZooMixed,
    OfflineLarge,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SpectralSmall,
        Workload::ZooMixed,
        Workload::OfflineLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpectralSmall => "spectral-small",
            Workload::ZooMixed => "zoo-mixed",
            Workload::OfflineLarge => "offline-large",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Offered rates (requests per second) of the serving ladder, set on
    /// a 2-vCPU host: `nominal` (about a quarter of saturation), the
    /// half-saturation rung, a rung just past saturation, and `overload`
    /// (over twice saturation). See `METRICS.md`.
    pub fn rates(self) -> &'static [f64] {
        match self {
            Workload::SpectralSmall => &[650.0, 1550.0, 3000.0, 6000.0],
            Workload::ZooMixed => &[250.0, 600.0, 1150.0, 2300.0],
            Workload::OfflineLarge => &[],
        }
    }

    /// The p99 latency limit of the workload's operation: about 20× its
    /// solo round trip on the reference host.
    pub fn limit_ms(self) -> f64 {
        match self {
            Workload::SpectralSmall => 20.0,
            Workload::ZooMixed => 50.0,
            Workload::OfflineLarge => 250.0,
        }
    }
}

/// The server configuration every serving run uses: `qnc serve`
/// defaults on an ephemeral port, with the per-connection cap lifted to
/// the global one, so global admission does the shedding while a few
/// connections carry many virtual users.
pub fn server_config() -> ServerConfig {
    let base = ServerConfig::default();
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        conn_inflight: base.max_inflight,
        ..base
    }
}

/// What one pool item asks of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `ENCODE` of image `i` with a spectral model fitted per request.
    SpectralEncode(usize),
    /// `ENCODE` of image `i` against the pre-loaded zoo model.
    ZooEncode(usize),
    /// `DECODE` of the reference container of image `i`.
    ZooDecode(usize),
}

/// A workload's inputs and their offline references.
pub struct Pool {
    pub workload: Workload,
    pub opts: CodecOptions,
    pub images: Vec<GrayImage>,
    /// Reference container of each image (offline encode, same options).
    pub containers: Vec<Vec<u8>>,
    /// Reference decode of each container.
    pub decoded: Vec<GrayImage>,
    /// The shared model (zoo and offline workloads).
    pub codec: Option<Arc<Codec>>,
    /// Images the shared model is fitted on at set-up.
    pub train: Vec<GrayImage>,
    /// Request items (serving workloads) and their wire traffic.
    pub ops: Vec<Op>,
    pub target: Target,
    pub psnr_db: f64,
    pub bpp: f64,
}

/// Tiles in the grid of an image.
pub fn tiles_of(img: &GrayImage) -> usize {
    img.width().div_ceil(TILE) * img.height().div_ceil(TILE)
}

/// Fit the shared model of the zoo and offline workloads.
pub fn fit_shared(train: &[GrayImage]) -> Codec {
    Codec::spectral_for_images(train, TILE, LATENT).expect("spectral fit of the training set")
}

impl Pool {
    /// Generate the inputs of `workload` from `seed` and compute every
    /// reference, single-threaded (`reference_pool` has one thread).
    pub fn build(workload: Workload, seed: u64, reference_pool: &rayon::ThreadPool) -> Pool {
        reference_pool.install(|| Pool::build_inner(workload, seed))
    }

    fn build_inner(workload: Workload, seed: u64) -> Pool {
        let (count, side) = match workload {
            // More distinct images (and so distinct models) than the 32
            // gate tables and 16 zoo models the server caches.
            Workload::SpectralSmall => (256, 32),
            Workload::ZooMixed => (32, 128),
            Workload::OfflineLarge => (24, 512),
        };
        let images = datasets::grayscale_blobs(count, side, side, sub_seed(seed, 1));
        let train = match workload {
            Workload::SpectralSmall => Vec::new(),
            _ => datasets::grayscale_blobs(16, 64, 64, sub_seed(seed, 2)),
        };
        let opts = CodecOptions {
            // Zoo requests name the model instead of carrying it.
            inline_model: workload != Workload::ZooMixed,
            ..CodecOptions::default()
        };
        let codec = (!train.is_empty()).then(|| Arc::new(fit_shared(&train)));
        let mut containers = Vec::with_capacity(count);
        let mut decoded = Vec::with_capacity(count);
        for img in &images {
            let bytes = match &codec {
                Some(c) => c.encode_image(img, &opts),
                None => Codec::spectral_for_image(img, TILE, LATENT)
                    .and_then(|c| c.encode_image(img, &opts)),
            }
            .expect("reference encode");
            let out = match &codec {
                Some(c) => c.decode_bytes(&bytes),
                None => qn_codec::decode_standalone(&bytes),
            }
            .expect("reference decode");
            containers.push(bytes);
            decoded.push(out);
        }
        // PSNR of the pool taken together: the mean squared error over
        // every pixel, so a few near-lossless images cannot dominate.
        let mse = images
            .iter()
            .zip(&decoded)
            .map(|(a, b)| metrics::mse(a, &b.clamped()))
            .sum::<f64>()
            / count as f64;
        let psnr_db = -10.0 * mse.log10();
        let bpp = images
            .iter()
            .zip(&containers)
            .map(|(img, c)| c.len() as f64 * 8.0 / img.len() as f64)
            .sum::<f64>()
            / count as f64;
        let ops: Vec<Op> = match workload {
            Workload::SpectralSmall => (0..count).map(Op::SpectralEncode).collect(),
            Workload::ZooMixed => (0..count)
                .map(Op::ZooEncode)
                .chain((0..count).map(Op::ZooDecode))
                .collect(),
            Workload::OfflineLarge => Vec::new(),
        };
        let mut pool = Pool {
            workload,
            opts,
            images,
            containers,
            decoded,
            codec,
            train,
            ops,
            target: Target::default(),
            psnr_db,
            bpp,
        };
        pool.target = pool.wire_target();
        pool
    }

    /// The `ENCODE` request of image `i`, exactly as `qnc remote
    /// compress` builds it.
    pub fn encode_request(&self, i: usize) -> EncodeRequest {
        match &self.codec {
            Some(c) => model_encode_request(&self.images[i], &self.opts, c.model_id()),
            None => spectral_encode_request(&self.images[i], &self.opts, LATENT),
        }
    }

    fn wire_target(&self) -> Target {
        let mut target = Target::default();
        for (idx, op) in self.ops.iter().enumerate() {
            let id = u32::try_from(idx).expect("pool fits a request id");
            let (frame, expect) = match *op {
                Op::SpectralEncode(i) | Op::ZooEncode(i) => (
                    Frame::request(Opcode::Encode, id, self.encode_request(i).to_payload()),
                    self.containers[i].clone(),
                ),
                Op::ZooDecode(i) => (
                    Frame::request(Opcode::Decode, id, self.containers[i].clone()),
                    image_to_payload(&self.decoded[i]),
                ),
            };
            target.frames.push(frame.to_bytes());
            target.expect.push(expect);
        }
        target
    }

    /// A picker of pool items for a request stream. Spectral requests
    /// walk a seeded permutation, so an image recurs only after every
    /// other one (reuse distance = pool size, beyond every cache); zoo
    /// requests draw encode or decode uniformly.
    pub fn picker(&self, seed: u64) -> impl FnMut() -> usize {
        let n = self.ops.len();
        let mut rng = Rng::new(sub_seed(seed, 3));
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let cyclic = self.workload == Workload::SpectralSmall;
        let mut k = 0usize;
        move || {
            k += 1;
            if cyclic {
                perm[(k - 1) % n]
            } else {
                rng.below(n)
            }
        }
    }

    /// Serve one request of `item` on a fresh connection and check it.
    fn warm_reply(&self, addr: std::net::SocketAddr, item: usize) -> Result<(), String> {
        use std::io::Write as _;
        let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .write_all(&self.target.frames[item])
            .map_err(|e| format!("send: {e}"))?;
        let frame = Frame::read_from(&mut stream).map_err(|e| format!("warm reply: {e}"))?;
        if frame.status != 0 || frame.payload != self.target.expect[item] {
            return Err("warm reply differs from the offline reference".into());
        }
        Ok(())
    }

    /// One timed set-up of a serving workload: fit the shared model (zoo),
    /// start the server, `LOAD_MODEL` it, and get the first warm reply
    /// (to a request for pool item `item`).
    pub fn setup_server(&self, item: usize) -> Result<(ServerHandle, Duration), String> {
        let t = Instant::now();
        let model = (!self.train.is_empty()).then(|| encode_model(fit_shared(&self.train).model()));
        let handle = spawn(server_config()).map_err(|e| format!("spawn server: {e}"))?;
        if let Some(bytes) = model {
            let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
            let id = client
                .load_model(&bytes)
                .map_err(|e| format!("LOAD_MODEL: {e}"))?;
            let expected = self.codec.as_ref().map(|c| c.model_id());
            if Some(id) != expected {
                return Err(format!(
                    "LOAD_MODEL returned id {id:#x}, expected {expected:x?}"
                ));
            }
        }
        self.warm_reply(handle.addr(), item)?;
        Ok((handle, t.elapsed()))
    }
}
