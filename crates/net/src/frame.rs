//! Payload framing for self-healing exchanges.
//!
//! When a fault plan is live, every deposit in [`crate::Cluster`]'s
//! rendezvous carries a [`Frame`] — the payload's byte length plus an
//! FNV-1a checksum — computed by the sender over the *pristine*
//! payload, before the injection hook gets a chance to corrupt it
//! (corruption-in-transit model: the NIC checksums at the source).
//! After the deposit barrier every member re-derives the frame from
//! what actually landed in the slot; a mismatch marks that deposit
//! corrupt and triggers the bounded retransmit protocol in
//! `exchange()` instead of letting flipped bits reach the algorithm
//! or surface as an end-of-run validation failure.
//!
//! Framing is typed through `Any` exactly like
//! [`crate::fault`]'s corruption hook: every payload type the
//! corruption hook can damage MUST be frameable here, otherwise a
//! corruption would go undetected again. The checksum for nested
//! vectors covers the inner lengths as well as the elements, so
//! moving an element between destinations (same bytes, different
//! boundaries) is still caught.

use std::any::Any;

/// 64-bit FNV-1a over a byte slice (offset basis / prime per the
/// reference parameters). Shared by exchange tags, payload frames,
/// and checkpoint envelopes.
#[inline]
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(data);
    h.finish()
}

/// Streaming FNV-1a, so frames hash element-by-element without
/// materialising a byte buffer.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Length + checksum header of one exchange deposit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Total payload element bytes.
    pub bytes: u64,
    /// FNV-1a over the elements (and inner lengths, for nested sends).
    pub checksum: u64,
}

/// Elements the framing (and cloning) registry understands.
trait FrameElem: Copy {
    const SIZE: u64;
    fn feed(&self, h: &mut Fnv1a);
}

impl FrameElem for u8 {
    const SIZE: u64 = 1;
    fn feed(&self, h: &mut Fnv1a) {
        h.update(&[*self]);
    }
}

impl FrameElem for u32 {
    const SIZE: u64 = 4;
    fn feed(&self, h: &mut Fnv1a) {
        h.update(&self.to_le_bytes());
    }
}

impl FrameElem for u64 {
    const SIZE: u64 = 8;
    fn feed(&self, h: &mut Fnv1a) {
        h.update(&self.to_le_bytes());
    }
}

impl FrameElem for (u64, u64) {
    const SIZE: u64 = 16;
    fn feed(&self, h: &mut Fnv1a) {
        h.update(&self.0.to_le_bytes());
        h.update(&self.1.to_le_bytes());
    }
}

impl FrameElem for (u64, u64, u64) {
    const SIZE: u64 = 24;
    fn feed(&self, h: &mut Fnv1a) {
        h.update(&self.0.to_le_bytes());
        h.update(&self.1.to_le_bytes());
        h.update(&self.2.to_le_bytes());
    }
}

fn frame_flat<T: FrameElem>(v: &[T]) -> Frame {
    let mut h = Fnv1a::new();
    for e in v {
        e.feed(&mut h);
    }
    Frame {
        bytes: v.len() as u64 * T::SIZE,
        checksum: h.finish(),
    }
}

fn frame_nested<T: FrameElem>(vv: &[Vec<T>]) -> Frame {
    let mut h = Fnv1a::new();
    let mut bytes = 0u64;
    for v in vv {
        // Inner lengths are part of the checksum: an element sliding
        // between destinations keeps the flat byte stream identical.
        h.update(&(v.len() as u64).to_le_bytes());
        for e in v {
            e.feed(&mut h);
        }
        bytes += v.len() as u64 * T::SIZE;
    }
    Frame {
        bytes,
        checksum: h.finish(),
    }
}

/// Derive the frame of a payload whose concrete type the registry
/// knows; `None` for unframed types (e.g. the barrier's `()` — which
/// the corruption hook cannot damage either).
pub(crate) fn frame_any(payload: &(dyn Any + Send + Sync)) -> Option<Frame> {
    if let Some(v) = payload.downcast_ref::<Vec<u64>>() {
        return Some(frame_flat(v));
    }
    if let Some(v) = payload.downcast_ref::<Vec<u32>>() {
        return Some(frame_flat(v));
    }
    if let Some(v) = payload.downcast_ref::<Vec<u8>>() {
        return Some(frame_flat(v));
    }
    if let Some(v) = payload.downcast_ref::<Vec<(u64, u64)>>() {
        return Some(frame_flat(v));
    }
    if let Some(v) = payload.downcast_ref::<Vec<(u64, u64, u64)>>() {
        return Some(frame_flat(v));
    }
    if let Some(vv) = payload.downcast_ref::<Vec<Vec<u64>>>() {
        return Some(frame_nested(vv));
    }
    if let Some(vv) = payload.downcast_ref::<Vec<Vec<(u64, u64)>>>() {
        return Some(frame_nested(vv));
    }
    if let Some(vv) = payload.downcast_ref::<Vec<Vec<(u64, u64, u64)>>>() {
        return Some(frame_nested(vv));
    }
    None
}

/// Deep-clone a payload of a registry-known type, for keeping a
/// pristine copy across the injection hook and for re-depositing on
/// retransmit (the collectives have no `T: Clone` bound at this
/// layer, so cloning goes through the same `Any` registry).
pub(crate) fn clone_any(payload: &(dyn Any + Send + Sync)) -> Option<Box<dyn Any + Send + Sync>> {
    if let Some(v) = payload.downcast_ref::<Vec<u64>>() {
        return Some(Box::new(v.clone()));
    }
    if let Some(v) = payload.downcast_ref::<Vec<u32>>() {
        return Some(Box::new(v.clone()));
    }
    if let Some(v) = payload.downcast_ref::<Vec<u8>>() {
        return Some(Box::new(v.clone()));
    }
    if let Some(v) = payload.downcast_ref::<Vec<(u64, u64)>>() {
        return Some(Box::new(v.clone()));
    }
    if let Some(v) = payload.downcast_ref::<Vec<(u64, u64, u64)>>() {
        return Some(Box::new(v.clone()));
    }
    if let Some(vv) = payload.downcast_ref::<Vec<Vec<u64>>>() {
        return Some(Box::new(vv.clone()));
    }
    if let Some(vv) = payload.downcast_ref::<Vec<Vec<(u64, u64)>>>() {
        return Some(Box::new(vv.clone()));
    }
    if let Some(vv) = payload.downcast_ref::<Vec<Vec<(u64, u64, u64)>>>() {
        return Some(Box::new(vv.clone()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{corrupt_any, CorruptMode};

    #[test]
    fn frame_detects_bitflip_and_truncation() {
        let v = vec![8u64, 9, 10];
        let clean = frame_any(&v).expect("u64 vec is framed");
        assert_eq!(clean.bytes, 24);

        let mut flipped = v.clone();
        assert!(corrupt_any(&mut flipped, CorruptMode::BitFlip));
        let f = frame_any(&flipped).unwrap();
        assert_eq!(f.bytes, clean.bytes, "bitflip keeps the length");
        assert_ne!(f.checksum, clean.checksum, "bitflip trips the checksum");

        let mut cut = v.clone();
        assert!(corrupt_any(&mut cut, CorruptMode::Truncate));
        let f = frame_any(&cut).unwrap();
        assert_ne!(f.bytes, clean.bytes, "truncation trips the length");
    }

    #[test]
    fn every_corruptible_type_is_framed() {
        // The invariant the healing protocol rests on: anything
        // `corrupt_any` can damage, `frame_any` can verify.
        let mut u64s = vec![1u64, 2];
        let mut u32s = vec![1u32, 2];
        let mut u8s = vec![1u8, 2];
        let mut pairs = vec![(1u64, 2u64)];
        let mut nested = vec![vec![3u64]];
        let mut triples = vec![(1u64, 2u64, 3u64)];
        let mut nested_pairs = vec![vec![(3u64, 4u64)]];
        let mut nested_triples = vec![vec![], vec![(3u64, 4u64, 5u64)]];
        let payloads: [&mut (dyn Any + Send + Sync); 8] = [
            &mut u64s,
            &mut u32s,
            &mut u8s,
            &mut pairs,
            &mut triples,
            &mut nested,
            &mut nested_pairs,
            &mut nested_triples,
        ];
        for p in payloads {
            let before = frame_any(&*p).expect("type must be framed");
            assert!(clone_any(&*p).is_some(), "type must be retransmittable");
            assert!(corrupt_any(&mut *p, CorruptMode::BitFlip));
            assert_ne!(frame_any(&*p), Some(before), "corruption must be visible");
        }
    }

    #[test]
    fn nested_frame_covers_destination_boundaries() {
        // Same flat bytes, different destination split: must differ.
        let a = vec![vec![7u64], vec![]];
        let b = vec![vec![], vec![7u64]];
        let fa = frame_any(&a).unwrap();
        let fb = frame_any(&b).unwrap();
        assert_eq!(fa.bytes, fb.bytes);
        assert_ne!(fa.checksum, fb.checksum);
    }

    #[test]
    fn unit_payload_is_unframed_and_unclonable() {
        let unit = ();
        assert_eq!(frame_any(&unit), None);
        assert!(clone_any(&unit).is_none());
    }

    #[test]
    fn clone_any_round_trips() {
        let v = vec![vec![1u64, 2], vec![3]];
        let cloned = clone_any(&v).expect("nested vec is clonable");
        let back = cloned.downcast_ref::<Vec<Vec<u64>>>().unwrap();
        assert_eq!(back, &v);
    }
}
