//! The layer walk of the traced run: sampled inputs replayed one at a
//! time, first as a solo client round trip, then through each layer's
//! public function in turn. Every call is a span; the measured calls
//! are then nested logically ([`spans::attribution_tree`]) to give each
//! layer's self time and the round trip's `unattributed` remainder.

use crate::spans::{attribution_tree, self_time_ns, Layer, SpanLog};
use crate::stats::{median, sub_seed, Rng};
use crate::workloads::{server_config, Op, Pool, LATENT, TILE};
use qn_codec::{Codec, Container};
use qn_core::config::SubspaceKind;
use qn_image::{datasets, tiles, GrayImage};
use qn_serve::protocol::{image_to_payload, read_image_payload, EncodeRequest};
use qn_serve::{Client, TileBatcher};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Self times (ns) per layer name, plus mesh throughput counts.
#[derive(Debug, Default)]
pub struct LayerWalk {
    pub self_ns: BTreeMap<&'static str, Vec<f64>>,
    pub total_ns: BTreeMap<&'static str, Vec<f64>>,
    pub mesh_tiles: u64,
    pub mesh_ns: u64,
    pub mismatches: usize,
    pub replayed: usize,
    /// Gate-table cache lookups and hits of the in-process mesh calls
    /// (the batcher's and the direct one).
    pub table_lookups: u64,
    pub table_hits: u64,
}

impl LayerWalk {
    /// Median self time of a layer in µs (0 when it never ran).
    pub fn self_us(&self, name: &str) -> f64 {
        self.self_ns.get(name).map_or(0.0, |v| median(v) / 1e3)
    }

    /// Median whole duration of a layer in µs (0 when it never ran).
    pub fn total_us(&self, name: &str) -> f64 {
        self.total_ns.get(name).map_or(0.0, |v| median(v) / 1e3)
    }

    fn absorb(&mut self, root: &Layer, request: u64) {
        let tree = attribution_tree(root, request);
        for (i, s) in tree.iter().enumerate() {
            self.self_ns
                .entry(s.name)
                .or_default()
                .push(self_time_ns(&tree, i) as f64);
            self.total_ns
                .entry(s.name)
                .or_default()
                .push(s.duration_ns() as f64);
        }
    }
}

/// Run `f` as a span under `parent`; returns its result and duration.
fn timed<R>(
    log: &mut SpanLog,
    name: &'static str,
    request: u64,
    parent: usize,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let (out, idx) = log.time(name, request, Some(parent), f);
    (out, log.spans[idx].duration_ns())
}

fn open_root(log: &mut SpanLog, request: u64) -> (usize, Instant) {
    let start = Instant::now();
    (log.record("replay", request, None, start, start), start)
}

fn close_root(log: &mut SpanLog, root: usize) {
    log.spans[root].end_ns = log.offset_ns(Instant::now());
}

fn tile_states(img: &GrayImage) -> Vec<Vec<f64>> {
    let dim = TILE * TILE;
    tiles::tile(img, TILE)
        .tiles
        .iter()
        .filter_map(|t| qn_core::encoding::encode(t.pixels(), dim).ok())
        .map(|e| e.amplitudes)
        .collect()
}

/// Models that push any other model out of the process-wide gate-table
/// cache. The server under test shares that cache with the walk, so
/// after a spectral round trip the request's model has warm tables,
/// while in the timed run every spectral request meets cold ones (each
/// brings its own model). Evicting before each in-process mesh call
/// makes the walk pay the table build the way the run does.
struct Evictor {
    codecs: Vec<Codec>,
}

impl Evictor {
    /// One model more than the cache holds, fitted on images from their
    /// own seed stream (none is a model the workload sends).
    fn new(seed: u64) -> Result<Evictor, String> {
        let images =
            datasets::grayscale_blobs(qn_backend::tables::CACHE_CAP + 1, 32, 32, sub_seed(seed, 8));
        let codecs = images
            .iter()
            .map(|img| Codec::spectral_for_image(img, TILE, LATENT))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("eviction models: {e}"))?;
        Ok(Evictor { codecs })
    }

    fn evict(&self) {
        for codec in &self.codecs {
            qn_backend::cached_tables(codec.model().compression.mesh());
        }
    }
}

/// Run `f`, adding the gate-table cache lookups it made to `walk`.
fn count_tables<R>(walk: &mut LayerWalk, f: impl FnOnce() -> R) -> R {
    let before = qn_backend::table_cache_stats();
    let out = f();
    let after = qn_backend::table_cache_stats();
    walk.table_hits += after.hits - before.hits;
    walk.table_lookups += after.hits + after.misses - before.hits - before.misses;
    out
}

fn same_pixels(a: &GrayImage, b: &GrayImage) -> bool {
    a.width() == b.width() && a.height() == b.height() && a.pixels() == b.pixels()
}

/// Replay `samples` seeded pool items against the live server at `addr`
/// and through each layer in-process.
pub fn replay_serving(
    pool: &Pool,
    addr: std::net::SocketAddr,
    samples: usize,
    seed: u64,
    log: &mut SpanLog,
) -> Result<LayerWalk, String> {
    let config = server_config();
    let batcher = TileBatcher::new(config.backend, config.batch_tiles, config.batch_deadline);
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = Rng::new(sub_seed(seed, 7));
    let mut walk = LayerWalk::default();
    let opts = &pool.opts;
    let backend = opts.backend.backend();
    let evictor = match pool.workload {
        crate::workloads::Workload::SpectralSmall => Some(Evictor::new(seed)?),
        _ => None,
    };
    let cold = || {
        if let Some(e) = &evictor {
            e.evict();
        }
    };
    for r in 0..samples {
        let request = r as u64;
        let op = pool.ops[rng.below(pool.ops.len())];
        let (root, _) = open_root(log, request);
        let tree = match op {
            Op::SpectralEncode(i) | Op::ZooEncode(i) => {
                let img = &pool.images[i];
                let req = pool.encode_request(i);
                let (reply, rt) = timed(log, "serve.roundtrip", request, root, || {
                    client.encode(&req)
                });
                let reply = reply.map_err(|e| format!("replay encode: {e}"))?;
                walk.mismatches += usize::from(reply != pool.containers[i]);
                let (_, protocol) = timed(log, "serve.protocol", request, root, || {
                    EncodeRequest::from_payload(&req.to_payload())
                });
                let mut children = vec![Layer::leaf("serve.protocol", protocol)];
                let codec: Arc<Codec> = match (op, &pool.codec) {
                    (Op::ZooEncode(_), Some(c)) => Arc::clone(c),
                    _ => {
                        let (codec, fit) = timed(log, "core.spectral_fit", request, root, || {
                            Codec::spectral_for_image(img, TILE, LATENT)
                        });
                        let states = tile_states(img);
                        let (u, pca) = timed(log, "linalg.pca", request, root, || {
                            qn_core::spectral::pca_rotation(
                                &states,
                                TILE * TILE,
                                LATENT,
                                SubspaceKind::KeepLast,
                            )
                        });
                        let u = u.map_err(|e| format!("pca_rotation: {e}"))?;
                        let (_, clements) = timed(log, "photonic.clements", request, root, || {
                            qn_photonic::clements::clements_decompose(&u, 1e-8)
                        });
                        children.push(Layer {
                            name: "core.spectral_fit",
                            duration_ns: fit,
                            children: vec![
                                Layer::leaf("linalg.pca", pca),
                                Layer::leaf("photonic.clements", clements),
                            ],
                        });
                        Arc::new(codec.map_err(|e| format!("spectral fit: {e}"))?)
                    }
                };
                cold();
                let (batched, batcher_ns) = count_tables(&mut walk, || {
                    timed(log, "serve.batcher", request, root, || {
                        batcher.encode_hinted(&codec, img, opts, true)
                    })
                });
                let batched = batched.map_err(|e| format!("batcher encode: {e}"))?.0;
                let (prep, prepare) = timed(log, "codec.prepare", request, root, || {
                    codec.prepare_encode(img, opts)
                });
                let (plan, states) = prep.map_err(|e| format!("prepare_encode: {e}"))?;
                let n_tiles = states.len() as u64;
                cold();
                let (outs, mesh) = count_tables(&mut walk, || {
                    timed(log, "backend.mesh", request, root, || {
                        codec
                            .model()
                            .compression
                            .forward_batch_with(&states, backend)
                    })
                });
                let (done, complete) = timed(log, "codec.complete", request, root, || {
                    codec.complete_encode(plan, outs)
                });
                let direct = done.map_err(|e| format!("complete_encode: {e}"))?.0;
                walk.mismatches += usize::from(batched != pool.containers[i]);
                walk.mismatches += usize::from(direct != pool.containers[i]);
                walk.mesh_tiles += n_tiles;
                walk.mesh_ns += mesh;
                children.push(Layer {
                    name: "serve.batcher",
                    duration_ns: batcher_ns,
                    children: vec![
                        Layer::leaf("codec.prepare", prepare),
                        Layer::leaf("backend.mesh", mesh),
                        Layer::leaf("codec.complete", complete),
                    ],
                });
                Layer {
                    name: "serve.roundtrip",
                    duration_ns: rt,
                    children,
                }
            }
            Op::ZooDecode(i) => {
                let codec = pool
                    .codec
                    .as_ref()
                    .ok_or("decode items need the zoo model")?;
                let bytes = &pool.containers[i];
                let want = &pool.decoded[i];
                let (reply, rt) = timed(log, "serve.roundtrip", request, root, || {
                    client.decode(bytes)
                });
                let reply = reply.map_err(|e| format!("replay decode: {e}"))?;
                walk.mismatches += usize::from(!same_pixels(&reply, want));
                let (_, protocol) = timed(log, "serve.protocol", request, root, || {
                    read_image_payload(&image_to_payload(want)).map(|(img, _)| img)
                });
                let (parsed, parse) = timed(log, "codec.parse", request, root, || {
                    Container::from_bytes(bytes)
                });
                let container = parsed.map_err(|e| format!("parse: {e}"))?;
                let (batched, batcher_ns) = count_tables(&mut walk, || {
                    timed(log, "serve.batcher", request, root, || {
                        batcher.decode_hinted(codec, &container, true)
                    })
                });
                let batched = batched.map_err(|e| format!("batcher decode: {e}"))?;
                let (prep, prepare) = timed(log, "codec.prepare", request, root, || {
                    codec.prepare_decode(&container)
                });
                let (plan, states) = prep.map_err(|e| format!("prepare_decode: {e}"))?;
                let n_tiles = states.len() as u64;
                let (outs, mesh) = count_tables(&mut walk, || {
                    timed(log, "backend.mesh", request, root, || {
                        codec
                            .model()
                            .reconstruction
                            .reconstruct_batch_with(&states, backend)
                    })
                });
                let (img, stitch) = timed(log, "codec.stitch", request, root, || {
                    codec.complete_decode(plan, outs)
                });
                let img = img.map_err(|e| format!("complete_decode: {e}"))?;
                walk.mismatches += usize::from(!same_pixels(&batched, want));
                walk.mismatches += usize::from(!same_pixels(&img, want));
                walk.mesh_tiles += n_tiles;
                walk.mesh_ns += mesh;
                Layer {
                    name: "serve.roundtrip",
                    duration_ns: rt,
                    children: vec![
                        Layer::leaf("serve.protocol", protocol),
                        Layer::leaf("codec.parse", parse),
                        Layer {
                            name: "serve.batcher",
                            duration_ns: batcher_ns,
                            children: vec![
                                Layer::leaf("codec.prepare", prepare),
                                Layer::leaf("backend.mesh", mesh),
                                Layer::leaf("codec.stitch", stitch),
                            ],
                        },
                    ],
                }
            }
        };
        close_root(log, root);
        walk.absorb(&tree, request);
        walk.replayed += 1;
    }
    Ok(walk)
}

/// Replay `samples` images of the offline workload through
/// `encode_image`/`decode_bytes` and their stages, inside `threads`.
pub fn replay_offline(
    pool: &Pool,
    threads: &rayon::ThreadPool,
    samples: usize,
    log: &mut SpanLog,
) -> Result<LayerWalk, String> {
    let codec = pool
        .codec
        .as_ref()
        .ok_or("offline workload needs its model")?;
    let opts = &pool.opts;
    let backend = opts.backend.backend();
    let mut walk = LayerWalk::default();
    threads.install(|| -> Result<(), String> {
        for r in 0..samples {
            let request = r as u64;
            let i = r % pool.images.len();
            let img = &pool.images[i];
            let (root, _) = open_root(log, request);
            let (bytes, enc) = timed(log, "codec.encode_image", request, root, || {
                codec.encode_image(img, opts)
            });
            let bytes = bytes.map_err(|e| format!("encode_image: {e}"))?;
            let (prep, prepare) = timed(log, "codec.prepare", request, root, || {
                codec.prepare_encode(img, opts)
            });
            let (plan, states) = prep.map_err(|e| format!("prepare_encode: {e}"))?;
            let (outs, mesh) = timed(log, "backend.mesh", request, root, || {
                codec
                    .model()
                    .compression
                    .forward_batch_with(&states, backend)
            });
            let (done, complete) = timed(log, "codec.complete", request, root, || {
                codec.complete_encode(plan, outs)
            });
            let direct = done.map_err(|e| format!("complete_encode: {e}"))?.0;
            walk.mismatches += usize::from(bytes != pool.containers[i]);
            walk.mismatches += usize::from(direct != pool.containers[i]);
            walk.mesh_tiles += states.len() as u64;
            walk.mesh_ns += mesh;
            walk.absorb(
                &Layer {
                    name: "codec.encode_image",
                    duration_ns: enc,
                    children: vec![
                        Layer::leaf("codec.prepare", prepare),
                        Layer::leaf("backend.mesh", mesh),
                        Layer::leaf("codec.complete", complete),
                    ],
                },
                request,
            );

            let (img_out, dec) = timed(log, "codec.decode_bytes", request, root, || {
                codec.decode_bytes(&bytes)
            });
            let img_out = img_out.map_err(|e| format!("decode_bytes: {e}"))?;
            let (parsed, parse) = timed(log, "codec.parse", request, root, || {
                Container::from_bytes(&bytes)
            });
            let container = parsed.map_err(|e| format!("parse: {e}"))?;
            let (prep, prepare) = timed(log, "codec.prepare", request, root, || {
                codec.prepare_decode(&container)
            });
            let (plan, states) = prep.map_err(|e| format!("prepare_decode: {e}"))?;
            let (outs, mesh) = timed(log, "backend.mesh", request, root, || {
                codec
                    .model()
                    .reconstruction
                    .reconstruct_batch_with(&states, backend)
            });
            let (stitched, stitch) = timed(log, "codec.stitch", request, root, || {
                codec.complete_decode(plan, outs)
            });
            let stitched = stitched.map_err(|e| format!("complete_decode: {e}"))?;
            walk.mismatches += usize::from(!same_pixels(&img_out, &pool.decoded[i]));
            walk.mismatches += usize::from(!same_pixels(&stitched, &pool.decoded[i]));
            walk.mesh_tiles += states.len() as u64;
            walk.mesh_ns += mesh;
            walk.absorb(
                &Layer {
                    name: "codec.decode_bytes",
                    duration_ns: dec,
                    children: vec![
                        Layer::leaf("codec.parse", parse),
                        Layer::leaf("codec.prepare", prepare),
                        Layer::leaf("backend.mesh", mesh),
                        Layer::leaf("codec.stitch", stitch),
                    ],
                },
                request,
            );
            close_root(log, root);
            walk.replayed += 1;
        }
        Ok(())
    })?;
    Ok(walk)
}

/// Mesh tiles/s over the tile states of `img` in a `threads`-thread pool,
/// repeating the pass for at least `budget`.
fn mesh_rate(codec: &Codec, states: &[Vec<f64>], threads: usize, budget: Duration) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let backend = qn_codec::CodecOptions::default().backend.backend();
    pool.install(|| {
        let start = Instant::now();
        let mut tiles = 0usize;
        while start.elapsed() < budget {
            let out = codec
                .model()
                .compression
                .forward_batch_with(states, backend);
            tiles += std::hint::black_box(out).len();
        }
        tiles as f64 / start.elapsed().as_secs_f64()
    })
}

/// `rayon.scaling`: mesh tiles/s in an `nproc`-thread pool over the same
/// in a 1-thread pool, on the workload's own batch shape (one image's
/// tiles), measured in alternating slices.
pub fn rayon_scaling(pool: &Pool, nproc: usize, budget: Duration) -> f64 {
    let img = &pool.images[0];
    let fitted;
    let codec: &Codec = match &pool.codec {
        Some(c) => c,
        None => {
            fitted = Codec::spectral_for_image(img, TILE, LATENT).expect("spectral fit");
            &fitted
        }
    };
    let states = tile_states(img);
    let slice = budget / 6;
    let (mut multi, mut single) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        multi.push(mesh_rate(codec, &states, nproc, slice));
        single.push(mesh_rate(codec, &states, 1, slice));
    }
    median(&multi) / median(&single)
}
