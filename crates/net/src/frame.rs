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
//! Which types can go on the wire is decided here, once: a collective
//! carries vectors (or per-destination vectors) of [`Wire`] elements,
//! and every such payload can be framed, cloned for retransmit and
//! damaged by the corruption hook — a type that cannot be framed cannot
//! be sent at all. The checksum for nested vectors covers the inner
//! lengths as well as the elements, so moving an element between
//! destinations (same bytes, different boundaries) is still caught.
//!
//! The same checksum seals data at rest: [`WordWriter`] and
//! [`WordReader`] are the one codec for a stream of little-endian `u64`
//! words with a trailing FNV-1a seal over its bytes — the layout of a
//! checkpoint envelope and of every partition-store stream.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::fault::CorruptMode;

/// 64-bit FNV-1a over a byte slice: the reference offset basis
/// `0xcbf2_9ce4_8422_2325`, but multiplier `0x1000_0000_01b3`, not the
/// reference prime `0x100_0000_01b3`. Exchange tags, payload frames,
/// checkpoint envelopes and every partition-store seal depend on this
/// constant, so it stays: changing it changes the store bytes.
#[inline]
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(data);
    h.finish()
}

/// Streaming FNV-1a, so frames hash element-by-element without
/// materialising a byte buffer; what a [`Wire`] element feeds.
pub struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Hash `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Why a sealed word stream was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Damage {
    /// The bytes end before a word, or cannot even hold the seal.
    Short,
    /// The invariant named here failed: the seal, a declared length
    /// longer than the words left, or words left over at the end.
    Corrupt(&'static str),
}

/// A sealed word stream under construction.
#[derive(Default)]
pub struct WordWriter {
    buf: Vec<u8>,
}

impl WordWriter {
    /// Append one word.
    pub fn put(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append `xs` behind its length, each element widened to a word.
    pub fn put_slice<T: Copy + Into<u64>>(&mut self, xs: &[T]) {
        self.put(xs.len() as u64);
        xs.iter().for_each(|&x| self.put(x.into()));
    }

    /// Append the FNV-1a seal of everything put so far; the stream's
    /// bytes.
    pub fn seal(mut self) -> Vec<u8> {
        let checksum = fnv1a(&self.buf);
        self.put(checksum);
        self.buf
    }
}

/// A bounds-checked cursor over the body of a sealed word stream.
pub struct WordReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> WordReader<'a> {
    /// Verify `stream`'s trailing seal (`what` names it when it fails)
    /// and read its body from the start.
    pub fn unseal(stream: &'a [u8], what: &'static str) -> Result<Self, Damage> {
        let split = stream.len().checked_sub(8).ok_or(Damage::Short)?;
        let (body, seal) = stream.split_at(split);
        if fnv1a(body).to_le_bytes() != seal {
            return Err(Damage::Corrupt(what));
        }
        Ok(WordReader { body, pos: 0 })
    }

    /// The next word.
    pub fn word(&mut self) -> Result<u64, Damage> {
        let bytes = self.body.get(self.pos..self.pos + 8).ok_or(Damage::Short)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Whole words left in the body.
    pub fn remaining(&self) -> u64 {
        ((self.body.len() - self.pos) / 8) as u64
    }

    /// The next length-prefixed slice. The declared length (`what`
    /// names it) must fit in the words left, so a damaged one cannot
    /// become a huge allocation.
    pub fn slice(&mut self, what: &'static str) -> Result<Vec<u64>, Damage> {
        Ok(self.words(what)?.collect())
    }

    /// The next length-prefixed slice's words, read in place, for a
    /// caller that keeps them in another form; the length is checked
    /// as [`WordReader::slice`] checks it.
    pub fn words(
        &mut self,
        what: &'static str,
    ) -> Result<impl ExactSizeIterator<Item = u64> + 'a, Damage> {
        let len = self.word()?;
        if len > self.remaining() {
            return Err(Damage::Corrupt(what));
        }
        let end = self.pos + len as usize * 8;
        let body: &'a [u8] = self.body;
        let words = body[self.pos..end].chunks_exact(8);
        self.pos = end;
        Ok(words.map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes"))))
    }

    /// Require that the body was read to its end (`what` names the
    /// leftover).
    pub fn end(&self, what: &'static str) -> Result<(), Damage> {
        if self.pos == self.body.len() {
            Ok(())
        } else {
            Err(Damage::Corrupt(what))
        }
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

/// An element a collective can carry: its fields feed the frame
/// checksum, and a bit flip damages its first field.
pub trait Wire: Copy + Send + Sync + 'static {
    /// Hash the fields in, little-endian, in order.
    fn feed(&self, h: &mut Fnv1a);
    /// XOR the low bit of the first field.
    fn flip(&mut self);
}

macro_rules! wire_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn feed(&self, h: &mut Fnv1a) {
                h.update(&self.to_le_bytes());
            }
            fn flip(&mut self) {
                *self ^= 1;
            }
        }
    )*};
}
wire_uint!(u8, u32, u64);

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn feed(&self, h: &mut Fnv1a) {
        self.0.feed(h);
        self.1.feed(h);
    }
    fn flip(&mut self) {
        self.0.flip();
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn feed(&self, h: &mut Fnv1a) {
        self.0.feed(h);
        self.1.feed(h);
        self.2.feed(h);
    }
    fn flip(&mut self) {
        self.0.flip();
    }
}

/// What one rank deposits for a collective: nothing (a barrier), a
/// vector of elements, or one vector per destination ([`Parts`]).
pub(crate) trait Payload: Clone + Send + Sync + 'static {
    /// Length + checksum of the payload as it is now.
    fn frame(&self) -> Frame;
    /// Damage the payload in place (flip the first element's low bit,
    /// or drop the last element); false when there was nothing to
    /// damage.
    fn corrupt(&mut self, mode: CorruptMode) -> bool;
}

impl Payload for () {
    fn frame(&self) -> Frame {
        Frame {
            bytes: 0,
            checksum: fnv1a(&[]),
        }
    }
    fn corrupt(&mut self, _: CorruptMode) -> bool {
        false
    }
}

impl<T: Wire> Payload for Vec<T> {
    fn frame(&self) -> Frame {
        let mut h = Fnv1a::new();
        self.iter().for_each(|e| e.feed(&mut h));
        Frame {
            bytes: std::mem::size_of_val(self.as_slice()) as u64,
            checksum: h.finish(),
        }
    }
    fn corrupt(&mut self, mode: CorruptMode) -> bool {
        match mode {
            CorruptMode::BitFlip => self.first_mut().map(T::flip).is_some(),
            CorruptMode::Truncate => self.pop().is_some(),
        }
    }
}

/// An `alltoallv` send set at the rendezvous: one part per destination,
/// each behind its own lock so its receiver can take it out of the
/// shared deposit after the collect instead of copying it — the part
/// then exists once, at its receiver, and the deposit keeps an empty
/// husk.
pub(crate) struct Parts<T>(Vec<Mutex<Vec<T>>>);

/// Lock one part; a part's lock is never held across a panic.
fn lock<T>(part: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    part.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Parts<T> {
    /// Move out the part for destination `dest`.
    pub(crate) fn take(&self, dest: usize) -> Vec<T> {
        std::mem::take(&mut *lock(&self.0[dest]))
    }
}

impl<T> From<Vec<Vec<T>>> for Parts<T> {
    fn from(send: Vec<Vec<T>>) -> Self {
        Parts(send.into_iter().map(Mutex::new).collect())
    }
}

impl<T: Clone> Clone for Parts<T> {
    fn clone(&self) -> Self {
        Parts(self.0.iter().map(|m| Mutex::new(lock(m).clone())).collect())
    }
}

impl<T: Wire> Payload for Parts<T> {
    fn frame(&self) -> Frame {
        let mut h = Fnv1a::new();
        let mut bytes = 0u64;
        for part in &self.0 {
            let v = lock(part);
            // Inner lengths are part of the checksum: an element sliding
            // between destinations keeps the flat byte stream identical.
            h.update(&(v.len() as u64).to_le_bytes());
            v.iter().for_each(|e| e.feed(&mut h));
            bytes += std::mem::size_of_val(v.as_slice()) as u64;
        }
        Frame {
            bytes,
            checksum: h.finish(),
        }
    }
    /// Damages the first non-empty destination.
    fn corrupt(&mut self, mode: CorruptMode) -> bool {
        self.0
            .iter_mut()
            .map(|m| m.get_mut().unwrap_or_else(PoisonError::into_inner))
            .find(|v| !v.is_empty())
            .is_some_and(|v| v.corrupt(mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_detects_bitflip_and_truncation() {
        let v = vec![8u64, 9, 10];
        let clean = v.frame();
        assert_eq!(clean.bytes, 24);

        let mut flipped = v.clone();
        assert!(flipped.corrupt(CorruptMode::BitFlip));
        assert_eq!(flipped, vec![9, 9, 10]);
        let f = flipped.frame();
        assert_eq!(f.bytes, clean.bytes, "bitflip keeps the length");
        assert_ne!(f.checksum, clean.checksum, "bitflip trips the checksum");

        let mut cut = v.clone();
        assert!(cut.corrupt(CorruptMode::Truncate));
        assert_eq!(cut, vec![8, 9]);
        assert_ne!(
            cut.frame().bytes,
            clean.bytes,
            "truncation trips the length"
        );
    }

    /// The invariant the healing protocol rests on, over every impl: a
    /// corruption of a non-empty payload is applied and changes its
    /// frame ...
    fn damage_is_visible<P: Payload>(payload: P) {
        for mode in [CorruptMode::BitFlip, CorruptMode::Truncate] {
            let mut p = payload.clone();
            assert!(p.corrupt(mode), "{mode:?} damages a non-empty payload");
            assert_ne!(p.frame(), payload.frame(), "{mode:?} must be visible");
        }
    }

    /// ... and one of an empty payload is not applied and leaves the
    /// frame alone.
    fn nothing_to_damage<P: Payload>(payload: P) {
        for mode in [CorruptMode::BitFlip, CorruptMode::Truncate] {
            let mut p = payload.clone();
            assert!(!p.corrupt(mode), "{mode:?} finds nothing to damage");
            assert_eq!(p.frame(), payload.frame());
        }
    }

    /// `a`, `b` as a flat vector and as a send set whose first
    /// destination is empty; and both shapes empty.
    fn element_shape<T: Wire>(a: T, b: T) {
        damage_is_visible(vec![a, b]);
        damage_is_visible(Parts::from(vec![vec![], vec![a, b]]));
        nothing_to_damage(Vec::<T>::new());
        nothing_to_damage(Parts::from(vec![Vec::<T>::new(); 2]));
    }

    #[test]
    fn every_payload_corruption_is_visible_in_its_frame() {
        element_shape(1u8, 2);
        element_shape(1u32, 2);
        element_shape(1u64, 2);
        element_shape((1u64, 2u64), (3, 4));
        element_shape((1u64, 2u32), (3, 4));
        element_shape((1u64, 2u64, 3u64), (4, 5, 6));
        nothing_to_damage(());
    }

    #[test]
    fn sealed_words_round_trip_and_name_their_damage() {
        let mut w = WordWriter::default();
        w.put(7);
        w.put_slice(&[1u64, 2, 3]);
        let stream = w.seal();
        assert_eq!(stream.len(), 6 * 8, "word, length, three words, seal");
        let mut r = WordReader::unseal(&stream, "seal").unwrap();
        assert_eq!(r.word(), Ok(7));
        assert_eq!(r.slice("length"), Ok(vec![1, 2, 3]));
        assert_eq!(r.end("tail"), Ok(()));
        assert_eq!(r.word(), Err(Damage::Short));

        assert_eq!(
            WordReader::unseal(&stream[..7], "seal").err(),
            Some(Damage::Short)
        );
        let mut flipped = stream.clone();
        flipped[8] ^= 1;
        assert_eq!(
            WordReader::unseal(&flipped, "seal").err(),
            Some(Damage::Corrupt("seal"))
        );
        // A sealed stream whose declared length outruns its words.
        let mut w = WordWriter::default();
        w.put(2);
        w.put(9);
        let stream = w.seal();
        let mut r = WordReader::unseal(&stream, "seal").unwrap();
        assert_eq!(r.slice("length"), Err(Damage::Corrupt("length")));
        let r = WordReader::unseal(&stream, "seal").unwrap();
        assert_eq!(r.end("tail"), Err(Damage::Corrupt("tail")));
    }

    #[test]
    fn nested_frame_covers_destination_boundaries() {
        // Same flat bytes, different destination split: must differ.
        let fa = Parts::from(vec![vec![7u64], vec![]]).frame();
        let fb = Parts::from(vec![vec![], vec![7u64]]).frame();
        assert_eq!(fa.bytes, fb.bytes);
        assert_ne!(fa.checksum, fb.checksum);
    }
}
