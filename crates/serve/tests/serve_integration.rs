//! Integration suite: a real server on an ephemeral port, real TCP
//! clients, and the acceptance property — **remote responses are
//! byte-identical to offline `qnc` runs** with the same model and
//! options, including under 16-way concurrent load where tiles from
//! different requests coalesce into shared backend passes.

use qn_backend::BackendKind;
use qn_codec::model::encode_model;
use qn_codec::{info, Codec, CodecOptions};
use qn_image::{datasets, GrayImage};
use qn_serve::client::{model_encode_request, spectral_encode_request};
use qn_serve::{spawn, Client, ServerConfig, ServerHandle};
use std::time::Duration;

/// A server on an ephemeral port with batching on (tiny deadline so
/// solo requests don't stall the suite).
fn boot(store_dir: Option<std::path::PathBuf>) -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir,
        batch_deadline: Duration::from_millis(2),
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("qn_serve_tests")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `LOAD_MODEL` the spectral fit of `img` and return the codec, its zoo
/// id and zoo-resolved options (no inline model). Requests naming a zoo
/// model are the ones the adaptive flush governs: an encode that fits
/// its own model always flushes at submission.
fn load_zoo_model(client: &mut Client, img: &GrayImage) -> (Codec, u64, CodecOptions) {
    let opts = CodecOptions {
        inline_model: false,
        ..CodecOptions::default()
    };
    let codec = Codec::spectral_for_image(img, opts.tile_size, 8).unwrap();
    let id = client.load_model(&encode_model(codec.model())).unwrap();
    (codec, id, opts)
}

#[test]
fn remote_spectral_encode_is_byte_identical_to_offline() {
    let server = boot(None);
    let img = datasets::grayscale_blobs(1, 32, 24, 42).remove(0);
    let opts = CodecOptions::default();

    // Offline reference: qnc compress without --model.
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();
    let offline_img = codec.decode_bytes(&offline).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let remote = client
        .encode(&spectral_encode_request(&img, &opts, 8))
        .unwrap();
    assert_eq!(remote, offline, "remote encode must be byte-identical");

    let decoded = client.decode(&remote).unwrap();
    assert_eq!(
        decoded, offline_img,
        "remote decode must be pixel-identical"
    );
}

#[test]
fn zoo_models_encode_and_decode_without_inline_models() {
    let dir = temp_dir("zoo");
    let server = boot(Some(dir.clone()));
    let img = datasets::grayscale_blobs(1, 32, 32, 7).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
    let model_bytes = encode_model(codec.model());
    let opts = CodecOptions {
        inline_model: false,
        ..CodecOptions::default()
    };
    let offline = codec.encode_image(&img, &opts).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let id = client.load_model(&model_bytes).unwrap();
    assert_eq!(id, codec.model_id(), "LOAD_MODEL returns the content id");
    assert!(
        dir.join(format!("{id:016x}.qnm")).exists(),
        "zoo persists the model under its id"
    );

    let remote = client
        .encode(&model_encode_request(&img, &opts, id))
        .unwrap();
    assert_eq!(remote, offline);

    // The container has no inline model: the server resolves the model
    // id against the zoo.
    let decoded = client.decode(&remote).unwrap();
    assert_eq!(decoded, codec.decode_bytes(&offline).unwrap());

    // A second server over the same zoo dir decodes cold from disk.
    drop(client);
    server.shutdown();
    let reborn = boot(Some(dir));
    let mut client = Client::connect(reborn.addr()).unwrap();
    let decoded = client.decode(&remote).unwrap();
    assert_eq!(decoded, codec.decode_bytes(&offline).unwrap());
}

#[test]
fn sixteen_concurrent_clients_round_trip_byte_identically() {
    let server = boot(None);
    let img = datasets::grayscale_blobs(1, 24, 24, 99).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();
    let offline_img = codec.decode_bytes(&offline).unwrap();

    let addr = server.addr();
    let workers: Vec<_> = (0..16)
        .map(|worker| {
            let img = img.clone();
            let opts = opts.clone();
            let offline = offline.clone();
            let offline_img = offline_img.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..3 {
                    let bytes = client
                        .encode(&spectral_encode_request(&img, &opts, 8))
                        .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
                    assert_eq!(
                        bytes, offline,
                        "worker {worker} round {round}: encode bytes"
                    );
                    let decoded = client
                        .decode(&bytes)
                        .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
                    assert_eq!(
                        decoded, offline_img,
                        "worker {worker} round {round}: decode"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    assert!(server.requests_served() >= 16 * 3 * 2);
}

#[test]
fn solo_requests_flush_adaptively_well_under_the_deadline() {
    // A deliberately huge batch deadline: without the adaptive flush a
    // solo request would stall the full two seconds waiting for
    // batch-mates that never come. With it, the server notices no
    // other request is past its frame header and flushes immediately.
    let deadline = Duration::from_secs(2);
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch_deadline: deadline,
        ..ServerConfig::default()
    })
    .unwrap();
    let img = datasets::grayscale_blobs(1, 24, 24, 31).remove(0);
    let mut client = Client::connect(server.addr()).unwrap();
    let (codec, id, opts) = load_zoo_model(&mut client, &img);
    let offline = codec.encode_image(&img, &opts).unwrap();
    let offline_img = codec.decode_bytes(&offline).unwrap();

    for round in 0..3 {
        let t0 = std::time::Instant::now();
        let bytes = client
            .encode(&model_encode_request(&img, &opts, id))
            .unwrap();
        let decoded = client.decode(&bytes).unwrap();
        let elapsed = t0.elapsed();
        // Bytes stay identical — the eager flush changes latency only.
        assert_eq!(bytes, offline, "round {round}");
        assert_eq!(decoded, offline_img, "round {round}");
        assert!(
            elapsed < deadline / 2,
            "round {round}: solo encode+decode took {elapsed:?}, \
             deadline is {deadline:?} — adaptive flush not engaging"
        );
    }
}

#[test]
fn overlapping_closed_loop_clients_never_pay_the_full_deadline() {
    // Two clients in a closed loop (each sends its next request as
    // soon as its reply lands): with the in-flight count released at
    // *submission* rather than at reply time, the last submitter of
    // any overlap sees no other incoming request and flushes the
    // merged group eagerly — so neither client ever stalls out a full
    // deadline, even while the other is mid mesh-pass. Were the count
    // held through the reply, roughly every second request here would
    // pay the whole 2 s.
    let deadline = Duration::from_secs(2);
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch_deadline: deadline,
        ..ServerConfig::default()
    })
    .unwrap();
    let img = datasets::grayscale_blobs(1, 24, 24, 61).remove(0);
    let (codec, id, opts) = load_zoo_model(&mut Client::connect(server.addr()).unwrap(), &img);
    let offline = codec.encode_image(&img, &opts).unwrap();

    let addr = server.addr();
    let rounds = 4;
    let t0 = std::time::Instant::now();
    let workers: Vec<_> = (0..2)
        .map(|worker| {
            let img = img.clone();
            let opts = opts.clone();
            let offline = offline.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..rounds {
                    let bytes = client
                        .encode(&model_encode_request(&img, &opts, id))
                        .unwrap_or_else(|e| panic!("worker {worker} round {round}: {e}"));
                    assert_eq!(bytes, offline, "worker {worker} round {round}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < deadline,
        "2 clients × {rounds} rounds took {elapsed:?} against a {deadline:?} \
         deadline — some request waited out the batch deadline"
    );
}

#[test]
fn encode_options_travel_the_wire() {
    let server = boot(None);
    let img = datasets::grayscale_blobs(1, 24, 16, 5).remove(0);
    let mut client = Client::connect(server.addr()).unwrap();
    for (per_tile_scale, inline_model, bits) in
        [(true, true, 8u8), (true, false, 5), (false, false, 12)]
    {
        let opts = CodecOptions {
            bits,
            per_tile_scale,
            inline_model,
            ..CodecOptions::default()
        };
        let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
        let offline = codec.encode_image(&img, &opts).unwrap();
        let remote = client
            .encode(&spectral_encode_request(&img, &opts, 8))
            .unwrap();
        assert_eq!(
            remote, offline,
            "options (scale={per_tile_scale}, inline={inline_model}, bits={bits})"
        );
    }
}

#[test]
fn every_entropy_coder_round_trips_byte_identically_over_the_wire() {
    // The bitstream-v2 acceptance property: remote encode and decode
    // are byte-identical to offline for all three entropy coders —
    // the coder choice travels the wire, the served container carries
    // the right format version, and the server decodes every format
    // it encodes.
    use qn_codec::EntropyCoder;
    let server = boot(None);
    let img = datasets::grayscale_blobs(1, 32, 24, 17).remove(0);
    let mut client = Client::connect(server.addr()).unwrap();
    for entropy in EntropyCoder::ALL {
        let opts = CodecOptions {
            entropy,
            ..CodecOptions::default()
        };
        let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
        let offline = codec.encode_image(&img, &opts).unwrap();
        let offline_img = codec.decode_bytes(&offline).unwrap();

        let remote = client
            .encode(&spectral_encode_request(&img, &opts, 8))
            .unwrap();
        assert_eq!(remote, offline, "{entropy}: remote encode bytes");
        let header = qn_codec::Container::from_bytes(&remote).unwrap().header;
        assert_eq!(header.entropy().unwrap(), entropy, "{entropy}: wire format");
        let decoded = client.decode(&remote).unwrap();
        assert_eq!(decoded, offline_img, "{entropy}: remote decode pixels");
    }
}

/// A full 16-byte ENCODE frame header promising a 4096-byte payload:
/// sent alone, it raises the adaptive-flush gauge until the connection
/// is reaped.
fn stalled_encode_header() -> Vec<u8> {
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(b"QNF1");
    header.push(1); // protocol version
    header.push(0x01); // ENCODE
    header.extend_from_slice(&0u16.to_le_bytes()); // status
    header.extend_from_slice(&7u32.to_le_bytes()); // request id
    header.extend_from_slice(&4096u32.to_le_bytes()); // payload length
    header
}

#[test]
fn stalled_mid_frame_peer_is_reaped_and_releases_the_eager_flush() {
    // A peer that sends an ENCODE frame header and then stalls used to
    // pin the adaptive-flush in-flight gauge until it went away,
    // degrading every other request to deadline-bounded batching. With
    // the read timeout the server reaps the stalled connection, so a
    // concurrent client flushes eagerly again — pinned here with a
    // deliberately huge 2 s deadline a solo request must stay well
    // under.
    use std::io::{Read as _, Write as _};
    let deadline = Duration::from_secs(2);
    let timeout = Duration::from_millis(250);
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch_deadline: deadline,
        read_timeout: timeout,
        ..ServerConfig::default()
    })
    .unwrap();

    // The stalling peer: a full ENCODE header promising a payload that
    // never comes.
    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    let header = stalled_encode_header();
    stalled.write_all(&header).unwrap();
    stalled.flush().unwrap();

    // Give the timeout room to fire and the connection to be reaped.
    std::thread::sleep(timeout * 3);

    // The stalled socket is closed by the server (EOF / reset)...
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut probe = [0u8; 64];
    match stalled.read(&mut probe) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("stalled connection got {n} unexpected reply bytes"),
    }

    // ... and a fresh client is solo again: eager flush, not deadline.
    let img = datasets::grayscale_blobs(1, 24, 24, 43).remove(0);
    let mut client = Client::connect(server.addr()).unwrap();
    let (codec, id, opts) = load_zoo_model(&mut client, &img);
    let offline = codec.encode_image(&img, &opts).unwrap();
    for round in 0..2 {
        let t0 = std::time::Instant::now();
        let bytes = client
            .encode(&model_encode_request(&img, &opts, id))
            .unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(bytes, offline, "round {round}");
        assert!(
            elapsed < deadline / 2,
            "round {round}: encode took {elapsed:?} with a stalled peer reaped — \
             the in-flight gauge is still pinned"
        );
    }

    // A *drip-feeding* peer (one payload byte per interval, each well
    // under any per-recv timeout) must be reaped too: the deadline
    // covers the whole frame, not each read.
    let mut dripper = std::net::TcpStream::connect(server.addr()).unwrap();
    dripper.write_all(&header).unwrap();
    let drip_deadline = std::time::Instant::now() + timeout * 8;
    let mut reaped = false;
    while std::time::Instant::now() < drip_deadline {
        if dripper
            .write_all(&[0u8])
            .and_then(|()| dripper.flush())
            .is_err()
        {
            reaped = true; // connection closed mid-drip
            break;
        }
        std::thread::sleep(timeout / 5);
    }
    if !reaped {
        // Writes may buffer past the close; the read side settles it.
        dripper
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut probe = [0u8; 16];
        reaped = matches!(dripper.read(&mut probe), Ok(0) | Err(_));
    }
    assert!(reaped, "drip-feeding peer survived the frame deadline");
    // And the gauge is free again.
    let t0 = std::time::Instant::now();
    let bytes = client
        .encode(&model_encode_request(&img, &opts, id))
        .unwrap();
    assert_eq!(bytes, offline);
    assert!(
        t0.elapsed() < deadline / 2,
        "dripper reaped but the in-flight gauge is still pinned"
    );
}

#[test]
fn spectral_encodes_flush_at_submission_while_a_header_holds_the_gauge() {
    // A stalled peer's ENCODE header raises the adaptive-flush gauge
    // and keeps it raised (the read timeout is far away). A zoo request
    // now waits out the 2 s deadline for a batch-mate that might come;
    // an encode that fits a model to its own image has no batch-mate
    // to wait for, so it flushes at submission regardless of the gauge.
    use std::io::Write as _;
    let deadline = Duration::from_secs(2);
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch_deadline: deadline,
        read_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    stalled.write_all(&stalled_encode_header()).unwrap();
    stalled.flush().unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let flushes = |client: &mut Client, cause: &str| {
        let json = client.stats().unwrap();
        stat_int(&json, &format!("batch_flushes_total{{cause={cause}}}"))
    };
    // The header is registered once the gauge reads 1.
    let t0 = std::time::Instant::now();
    while stat_int(&client.stats().unwrap(), "serve_inflight_requests") == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "header never counted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let (eager0, deadline0) = (
        flushes(&mut client, "eager"),
        flushes(&mut client, "deadline"),
    );

    let img = datasets::grayscale_blobs(1, 24, 24, 71).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();

    let t0 = std::time::Instant::now();
    let bytes = client
        .encode(&spectral_encode_request(&img, &opts, 8))
        .unwrap();
    let took = t0.elapsed();
    assert_eq!(bytes, offline, "spectral encode bytes");
    assert!(
        took < deadline / 2,
        "spectral encode took {took:?} while a header held the gauge — \
         a per-request fit waited for batch-mates"
    );
    assert_eq!(
        flushes(&mut client, "eager"),
        eager0 + 1,
        "the fitted pass flushes eagerly"
    );
    assert_eq!(
        flushes(&mut client, "deadline"),
        deadline0,
        "the fitted pass does not wait"
    );

    // The gauge really is held: a zoo request still coalesces by
    // deadline, exactly as before.
    let (zoo_codec, id, zoo_opts) = load_zoo_model(&mut client, &img);
    let t0 = std::time::Instant::now();
    let bytes = client
        .encode(&model_encode_request(&img, &zoo_opts, id))
        .unwrap();
    assert!(t0.elapsed() >= deadline, "zoo request skipped the deadline");
    assert_eq!(bytes, zoo_codec.encode_image(&img, &zoo_opts).unwrap());
    assert_eq!(flushes(&mut client, "deadline"), deadline0 + 1);
    assert_eq!(
        stat_int(&client.stats().unwrap(), "serve_inflight_requests"),
        1,
        "only the stalled header is counted"
    );
}

#[test]
fn list_models_enumerates_the_zoo_with_sizes_and_residency() {
    let dir = temp_dir("list_models");
    let server = boot(Some(dir));
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.list_models().unwrap(), vec![], "fresh zoo is empty");

    let mut expected = Vec::new();
    for seed in [21u64, 22] {
        let img = datasets::grayscale_blobs(1, 16, 16, seed).remove(0);
        let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
        let bytes = encode_model(codec.model());
        let id = client.load_model(&bytes).unwrap();
        expected.push((id, bytes.len() as u64));
    }
    expected.sort_unstable();

    let listed = client.list_models().unwrap();
    assert_eq!(
        listed
            .iter()
            .map(|e| (e.id, e.size_bytes))
            .collect::<Vec<_>>(),
        expected,
        "ids and serialized sizes, sorted by id"
    );
    assert!(
        listed.iter().all(|e| e.cached),
        "freshly loaded models are cache-resident"
    );

    // A malformed LIST_MODELS request (non-empty payload) fails typed
    // and keeps the connection usable.
    use qn_serve::protocol::{ErrorCode, Frame, Opcode};
    let bad = Frame::request(Opcode::ListModels, 77, vec![1, 2, 3]);
    bad.write_to(client.stream_mut()).unwrap();
    let reply = Frame::read_from(client.stream_mut()).unwrap();
    assert_eq!(reply.status, ErrorCode::BadRequest as u16);
    assert_eq!(client.list_models().unwrap().len(), 2, "connection lives");
}

#[test]
fn info_replies_share_the_cli_json() {
    let server = boot(None);
    let img = datasets::grayscale_blobs(1, 16, 16, 3).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).unwrap();
    let container = codec.encode_image(&img, &CodecOptions::default()).unwrap();
    let model_bytes = encode_model(codec.model());

    let mut client = Client::connect(server.addr()).unwrap();
    // File info: byte-for-byte the `qnc info --json` output.
    assert_eq!(
        client.info(Some(&container)).unwrap(),
        info::file_info_json(&container).unwrap()
    );
    assert_eq!(
        client.info(Some(&model_bytes)).unwrap(),
        info::file_info_json(&model_bytes).unwrap()
    );
    // Server info: names the serving parameters.
    let status = client.info(None).unwrap();
    assert!(status.contains("\"format\":\"qn-serve\""), "{status}");
    assert!(status.contains("\"backend\":\"panel\""), "{status}");
    assert!(status.contains("\"coalescing\":true"), "{status}");
}

#[test]
fn per_request_dispatch_servers_answer_the_same_bytes() {
    // Batching off (zero deadline) and the scalar backend: responses
    // must still be byte-identical — scheduling is never observable.
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        backend: BackendKind::Scalar,
        batch_deadline: Duration::ZERO,
        ..ServerConfig::default()
    })
    .unwrap();
    let img = datasets::grayscale_blobs(1, 24, 24, 11).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let remote = client
        .encode(&spectral_encode_request(&img, &opts, 8))
        .unwrap();
    assert_eq!(remote, offline);
}

/// Extract a plain integer counter/gauge value from the stats JSON.
fn stat_int(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} missing in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not an integer in {json}"))
}

/// Extract a histogram's observation count from the stats JSON.
fn hist_count(json: &str, key: &str) -> u64 {
    stat_int(json, &format!("{key}\":{{\"count"))
}

#[test]
fn stats_rejects_non_empty_payloads_with_a_typed_error() {
    let server = boot(None);
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .roundtrip(qn_serve::Opcode::Stats, b"extra".to_vec())
        .expect_err("STATS with a payload must fail");
    match err {
        qn_serve::ServeError::Remote { code, message } => {
            assert_eq!(code, qn_serve::ErrorCode::BadRequest as u16, "{message}");
            assert!(message.contains("no payload"), "{message}");
        }
        other => panic!("expected a remote BadRequest, got {other}"),
    }
    // The connection survives a request-level error.
    assert!(client.stats().unwrap().starts_with("{\"uptime_secs\":"));
}

#[test]
fn metrics_disabled_servers_say_so_and_reject_stats() {
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        metrics: false,
        ..ServerConfig::default()
    })
    .unwrap();
    assert!(server.metrics().is_none());
    let mut client = Client::connect(server.addr()).unwrap();
    // Feature detection: INFO carries metrics:false ...
    let status = client.info(None).unwrap();
    assert!(status.contains("\"metrics\":false"), "{status}");
    assert!(status.contains("\"uptime_secs\":"), "{status}");
    assert!(status.contains("\"server_version\":\""), "{status}");
    // ... and STATS answers a typed BadRequest, not a close.
    match client.stats().expect_err("STATS must fail without metrics") {
        qn_serve::ServeError::Remote { code, message } => {
            assert_eq!(code, qn_serve::ErrorCode::BadRequest as u16, "{message}");
        }
        other => panic!("expected a remote BadRequest, got {other}"),
    }
    // Disabled metrics never perturb the bytes either.
    let img = datasets::grayscale_blobs(1, 16, 16, 21).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();
    assert_eq!(
        client
            .encode(&spectral_encode_request(&img, &opts, 8))
            .unwrap(),
        offline
    );
}

#[test]
fn stats_counts_match_a_client_side_tally_under_sixteen_clients() {
    let server = boot(None);
    let addr = server.addr();
    let img = datasets::grayscale_blobs(1, 16, 16, 33).remove(0);
    let opts = CodecOptions::default();
    let codec = Codec::spectral_for_image(&img, opts.tile_size, 8).unwrap();
    let offline = codec.encode_image(&img, &opts).unwrap();

    // Client-side tally: 16 workers × (2 encodes + 1 decode + 1 info +
    // 1 list).
    let workers: Vec<_> = (0..16)
        .map(|_| {
            let img = img.clone();
            let opts = opts.clone();
            let offline = offline.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..2 {
                    client
                        .encode(&spectral_encode_request(&img, &opts, 8))
                        .expect("encode");
                }
                client.decode(&offline).expect("decode");
                client.info(None).expect("info");
                client.list_models().expect("list");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    let (enc, dec, info_n, list_n) = (32u64, 16u64, 16u64, 16u64);

    // Request counters increment before the reply is written, so after
    // the workers join they are exact. Latency records after the reply
    // leaves, so the last write on each connection may still be racing
    // the stats read — poll briefly for the histograms to catch up.
    let mut client = Client::connect(addr).unwrap();
    let mut stats_calls = 0u64;
    let json = loop {
        stats_calls += 1;
        let json = client.stats().expect("stats");
        if hist_count(&json, "serve_request_latency_ns{op=encode}") == enc
            && hist_count(&json, "serve_request_latency_ns{op=decode}") == dec
        {
            break json;
        }
        assert!(
            stats_calls < 200,
            "latency histograms never caught up: {json}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    assert_eq!(stat_int(&json, "serve_requests_total{op=encode}"), enc);
    assert_eq!(stat_int(&json, "serve_requests_total{op=decode}"), dec);
    assert_eq!(stat_int(&json, "serve_requests_total{op=info}"), info_n);
    assert_eq!(
        stat_int(&json, "serve_requests_total{op=list_models}"),
        list_n
    );
    // The stats polls count themselves (each increments before its own
    // reply is built).
    assert_eq!(
        stat_int(&json, "serve_requests_total{op=stats}"),
        stats_calls
    );
    assert_eq!(stat_int(&json, "serve_connections_total"), 17);
    assert!(stat_int(&json, "serve_frame_bytes_in_total") > 0, "{json}");
    assert!(stat_int(&json, "serve_frame_bytes_out_total") > 0, "{json}");
    // Codec stage histograms populated by the mesh-bound requests.
    assert_eq!(
        hist_count(&json, "codec_stage_ns{op=encode,stage=mesh}"),
        enc
    );
    assert_eq!(
        hist_count(&json, "codec_stage_ns{op=decode,stage=parse}"),
        dec
    );
    assert_eq!(
        hist_count(&json, "codec_stage_ns{op=encode,stage=spectral}"),
        enc
    );
    // Every encode used the default rice coder.
    assert!(
        stat_int(&json, "codec_coded_bytes_total{coder=rice}") > 0,
        "{json}"
    );
    // Flush-cause attribution is total: the per-cause counters sum to
    // the number of executed batches.
    let flushes = hist_count(&json, "batch_flush_tiles");
    let by_cause: u64 = ["full", "deadline", "eager", "drain"]
        .iter()
        .map(|c| stat_int(&json, &format!("batch_flushes_total{{cause={c}}}")))
        .sum();
    assert_eq!(
        by_cause, flushes,
        "flush causes must sum to flushes: {json}"
    );
    assert!(flushes > 0, "{json}");
    // Adaptive-flush bookkeeping drained back to zero.
    assert_eq!(stat_int(&json, "serve_inflight_requests"), 0);

    // The handle exposes the same registry the wire serves.
    let handle_json = server
        .metrics()
        .expect("metrics on by default")
        .registry()
        .to_json();
    assert_eq!(
        stat_int(&handle_json, "serve_requests_total{op=encode}"),
        enc
    );
}
