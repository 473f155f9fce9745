//! The heap-allocation budget of LR-Seluge's accept and serve paths.
//!
//! A counting global allocator counts the allocations each thread makes
//! (`alloc`, `alloc_zeroed` and `realloc` calls). It lives in this test
//! binary alone, so it touches no other test. A base station and
//! relaying receivers pass the default-parameter image down a lossy
//! chain, each receiver turning sender for the next hop, and every
//! `packet_payload` and `handle_packet` call is counted and filed by
//! what it did:
//! - building a base station is a constant that does not grow with the
//!   page count: it serves the preprocessed packets without copying;
//! - a duplicate, a rejected and an accepted page packet cost nothing,
//!   except that the first packet of a page allocates the receive
//!   buffer's one byte array;
//! - serving from a page whose packets are at hand costs the one `Vec`
//!   that `Scheme::packet_payload` returns;
//! - a relay's first serve of a page and a page-completing packet cost
//!   at most a stated constant each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

use lr_seluge::{LrArtifacts, LrScheme, LrSelugeParams};
use lrs_deluge::bootstrap::DeploymentKeys;
use lrs_deluge::engine::{PacketDisposition, Scheme};
use lrs_rng::DetRng;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tick() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `LrScheme::base`, whatever the page count: the hash-page packets it
/// serves (`n0 + 1` at the default `n0 = 16`), the bootstrap's copies
/// of the signature body, `M0` and the stored pages, the receive
/// buffers' occupancy vectors and the relay-cache index.
const BASE_CONSTRUCTION: u64 = 25;
/// A relay's first serve of a page: the page's packet buffer, the
/// encoder's list of source blocks and the returned packet.
const FIRST_SERVE: u64 = 3;
/// A relay's first serve of the hash page: re-encoding `M0`, the Merkle
/// tree over its blocks, each packet's path and the framed packets.
const HASH_PAGE_FIRST_SERVE: u64 = 77;
/// A packet that completes its page: the decode's subset list, the
/// Reed-Solomon decoder's working set (rows chosen, erased sources, the
/// `m × m` system, its inverse and the residuals) and, on a node's first
/// decode, its reusable page scratch.
const PAGE_COMPLETION: u64 = 13;

/// Relay hops: the base station serves the first, each receiver the next.
const HOPS: usize = 3;
/// Share of each pass's packets the chain loses.
const LOSS: f64 = 0.3;

fn params(image_len: usize) -> LrSelugeParams {
    LrSelugeParams {
        image_len,
        ..LrSelugeParams::default()
    }
}

fn keys(params: &LrSelugeParams) -> DeploymentKeys {
    DeploymentKeys::derive(b"allocation budget", params.version, params.puzzle_strength)
}

fn artifacts(params: LrSelugeParams, keys: &DeploymentKeys) -> (LrArtifacts, Vec<u8>) {
    let image: Vec<u8> = (0..params.image_len)
        .map(|i| (i * 131 % 251) as u8)
        .collect();
    let art = LrArtifacts::build(&image, params, &keys.keypair, &keys.chain);
    (art, image)
}

/// Allocations per call, filed by what the call did.
#[derive(Default)]
struct Tally {
    base: u64,
    /// `packet_payload` from a page whose packets were at hand.
    serve: Vec<u64>,
    /// A relay's first `packet_payload` of a page.
    first_serve: Vec<u64>,
    /// A relay's first `packet_payload` of the hash page.
    hash_page_first_serve: Vec<u64>,
    /// Accepted page packets into an empty receive buffer.
    first_accept: Vec<u64>,
    /// Accepted page packets into a buffer holding some, not
    /// completing the page.
    accept: Vec<u64>,
    completing: Vec<u64>,
    duplicate: Vec<u64>,
    rejected: Vec<u64>,
}

/// Passes the default-parameter image down a chain of [`HOPS`] hops,
/// losing [`LOSS`] of every pass's packets and repeating passes over
/// the still-wanted ones until each receiver completes. Every page
/// packet is preceded by a forged copy and, unless it completes the
/// page, followed by a duplicate.
fn lossy_chain() -> Tally {
    let params = params(LrSelugeParams::default().image_len);
    let keys = keys(&params);
    let (art, image) = artifacts(params, &keys);
    let (pubkey, puzzle) = (keys.keypair.public(), keys.puzzle);
    let mut tally = Tally::default();
    let (mut sender, base) = counted(|| LrScheme::base(&art, pubkey, puzzle));
    tally.base = base;
    let mut rng = DetRng::seed_from_u64(0x616c_6c6f);
    for hop in 0..HOPS {
        let mut rx = LrScheme::receiver(params, pubkey, puzzle);
        let mut served = HashSet::new();
        while rx.complete_items() < rx.num_items() {
            let item = rx.complete_items();
            let wanted: Vec<u16> = rx.wanted(item).iter_ones().map(|j| j as u16).collect();
            for index in wanted {
                if rng.gen_bool(LOSS) {
                    continue;
                }
                let (payload, n) = counted(|| sender.packet_payload(item, index));
                let payload = payload.expect("the sender holds every item");
                match (hop > 0 && item >= 1 && served.insert(item), item) {
                    (true, 1) => tally.hash_page_first_serve.push(n),
                    (true, _) => tally.first_serve.push(n),
                    (false, _) => tally.serve.push(n),
                }
                if item < 2 {
                    let disposition = rx.handle_packet(item, index, &payload);
                    assert_eq!(disposition, PacketDisposition::Accepted, "item {item}");
                    if rx.complete_items() > item {
                        break;
                    }
                    continue;
                }
                let mut forged = payload.clone();
                forged[usize::from(index) % params.payload_len] ^= 1;
                let (disposition, n) = counted(|| rx.handle_packet(item, index, &forged));
                assert_eq!(disposition, PacketDisposition::Rejected);
                tally.rejected.push(n);

                let empty = rx.wanted(item).count_ones() == usize::from(params.n);
                let (disposition, n) = counted(|| rx.handle_packet(item, index, &payload));
                assert_eq!(disposition, PacketDisposition::Accepted, "item {item}");
                if rx.complete_items() > item {
                    tally.completing.push(n);
                    break;
                }
                if empty {
                    tally.first_accept.push(n);
                } else {
                    tally.accept.push(n);
                }
                let (disposition, n) = counted(|| rx.handle_packet(item, index, &payload));
                assert_eq!(disposition, PacketDisposition::Duplicate);
                tally.duplicate.push(n);
            }
        }
        assert_eq!(rx.image().as_deref(), Some(&image[..]), "hop {hop}");
        sender = rx;
    }
    tally
}

fn mean(counts: &[u64]) -> f64 {
    counts.iter().sum::<u64>() as f64 / counts.len() as f64
}

#[test]
fn the_packet_path_allocates_within_its_budget() {
    let t = lossy_chain();
    let pages = usize::from(LrSelugeParams::default().pages());
    println!(
        "base {}; per call: serve {:.2} over {}, first serve {:?} (hash page {:?}), \
         accept {:.2}, first accept {:?}, completing {:?}, duplicate {:.2}, rejected {:.2}",
        t.base,
        mean(&t.serve),
        t.serve.len(),
        t.first_serve,
        t.hash_page_first_serve,
        mean(&t.accept),
        t.first_accept,
        t.completing,
        mean(&t.duplicate),
        mean(&t.rejected),
    );
    let serves = [&t.serve[..], &t.first_serve, &t.hash_page_first_serve].concat();
    let accepts = [&t.accept[..], &t.first_accept, &t.completing].concat();
    println!(
        "over the chain: packet_payload {:.2}, accepted page packet {:.2}",
        mean(&serves),
        mean(&accepts)
    );
    assert_eq!(t.base, BASE_CONSTRUCTION, "base station construction");
    // Every category was exercised on every page of every relay.
    assert_eq!(t.first_serve.len(), (HOPS - 1) * pages);
    assert_eq!(t.hash_page_first_serve.len(), HOPS - 1);
    assert_eq!(t.completing.len(), HOPS * pages);
    assert_eq!(t.first_accept.len(), HOPS * pages);
    assert!(t.accept.len() > HOPS * pages);

    let only = |counts: &[u64], n: u64, what: &str| {
        assert!(counts.iter().all(|&c| c == n), "{what}: {counts:?}");
    };
    only(&t.serve, 1, "serve from packets at hand");
    only(&t.duplicate, 0, "duplicate page packet");
    only(&t.rejected, 0, "rejected page packet");
    only(&t.accept, 0, "accepted page packet");
    only(&t.first_accept, 1, "first accepted packet of a page");
    let at_most = |counts: &[u64], n: u64, what: &str| {
        assert!(counts.iter().all(|&c| c <= n), "{what}: {counts:?}");
    };
    at_most(&t.first_serve, FIRST_SERVE, "first serve of a page");
    let hash_page = "first serve of the hash page";
    at_most(&t.hash_page_first_serve, HASH_PAGE_FIRST_SERVE, hash_page);
    at_most(&t.completing, PAGE_COMPLETION, "page-completing packet");
}

#[test]
fn a_base_station_costs_the_same_whatever_the_page_count() {
    for image_len in [1024, 20 * 1024, 64 * 1024] {
        let params = params(image_len);
        let keys = keys(&params);
        let (art, _) = artifacts(params, &keys);
        let (pubkey, puzzle) = (keys.keypair.public(), keys.puzzle);
        let (_, n) = counted(|| LrScheme::base(&art, pubkey, puzzle));
        assert_eq!(n, BASE_CONSTRUCTION, "{} pages", params.pages());
    }
}
