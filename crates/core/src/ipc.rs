//! Trusted inter-process communication (Section 4.2.2).
//!
//! TrustLite establishes a mutually authenticated local channel between
//! two trustlets with a **single round trip** and no trusted kernel:
//!
//! 1. The initiator locally attests the responder (Trustlet Table lookup,
//!    MPU-rule validation, optional code-hash check — see
//!    [`crate::attest`]).
//! 2. `syn(A, B, N_A)` — identifiers of both parties plus a fresh nonce.
//! 3. The responder may attest the initiator, then replies
//!    `ack(A, B, N_A, N_B)`.
//! 4. Both sides derive the session token `hash(A, B, N_A, N_B)` and use
//!    it to authenticate subsequent messages.
//!
//! The security argument is architectural: receiver identity is enforced
//! by the CPU (messages enter only through code entry points), the secure
//! exception engine keeps register contents from the OS, and MPU rules
//! persist until reset, so a single inspection of the peer suffices.
//!
//! This module provides the protocol state machines (used host-side and
//! by tests) plus the register-level message encoding used by the
//! in-simulator trustlet programs.

use core::fmt;

use trustlite_crypto::{hmac_sha256, Sponge, XorShift64};

/// Register-level message type tags (passed in `r0` on a `call()` entry).
pub mod msg_type {
    /// `syn` handshake message.
    pub const SYN: u32 = 1;
    /// `ack` handshake message.
    pub const ACK: u32 = 2;
    /// Authenticated data message.
    pub const DATA: u32 = 3;
}

/// A `syn` handshake message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Syn {
    /// Initiator trustlet identifier.
    pub initiator: u32,
    /// Responder trustlet identifier.
    pub responder: u32,
    /// Initiator nonce.
    pub nonce_a: u32,
}

/// An `ack` handshake message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Initiator trustlet identifier (echoed).
    pub initiator: u32,
    /// Responder trustlet identifier (echoed).
    pub responder: u32,
    /// Initiator nonce (echoed).
    pub nonce_a: u32,
    /// Responder nonce.
    pub nonce_b: u32,
}

/// A handshake failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpcError {
    /// The `ack` does not echo the `syn` (wrong peer, replay, or forgery).
    AckMismatch,
    /// A message tag failed verification.
    BadTag,
}

impl fmt::Display for IpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpcError::AckMismatch => write!(f, "ack does not match the outstanding syn"),
            IpcError::BadTag => write!(f, "message authentication tag invalid"),
        }
    }
}

impl std::error::Error for IpcError {}

/// Derives the session token `hash(A, B, N_A, N_B)`.
pub fn session_token(initiator: u32, responder: u32, nonce_a: u32, nonce_b: u32) -> [u8; 32] {
    let mut s = Sponge::new();
    for w in [initiator, responder, nonce_a, nonce_b] {
        s.update(&w.to_le_bytes());
    }
    s.finish()
}

/// An established trusted channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    /// Initiator identifier.
    pub initiator: u32,
    /// Responder identifier.
    pub responder: u32,
    token: [u8; 32],
}

impl Channel {
    /// The raw session token (for in-simulator comparison).
    pub fn token(&self) -> [u8; 32] {
        self.token
    }

    /// Authenticates a message under the session token.
    pub fn tag(&self, msg: &[u8]) -> [u8; 32] {
        hmac_sha256(&self.token, msg)
    }

    /// Verifies a message tag in constant time.
    pub fn verify(&self, msg: &[u8], tag: &[u8]) -> Result<(), IpcError> {
        if trustlite_crypto::ct_eq(&self.tag(msg), tag) {
            Ok(())
        } else {
            Err(IpcError::BadTag)
        }
    }
}

/// The initiator's half of the handshake.
#[derive(Debug)]
pub struct Initiator {
    syn: Syn,
}

impl Initiator {
    /// Starts a handshake from `initiator` to `responder`. Local
    /// attestation of the responder is the caller's responsibility
    /// (see [`crate::attest::local_attest`]).
    pub fn start(initiator: u32, responder: u32, rng: &mut XorShift64) -> (Initiator, Syn) {
        let syn = Syn {
            initiator,
            responder,
            nonce_a: rng.next_u32(),
        };
        (Initiator { syn }, syn)
    }

    /// The outstanding `syn`.
    pub fn syn(&self) -> Syn {
        self.syn
    }

    /// Completes the handshake with the responder's `ack`.
    pub fn complete(self, ack: Ack) -> Result<Channel, IpcError> {
        if ack.initiator != self.syn.initiator
            || ack.responder != self.syn.responder
            || ack.nonce_a != self.syn.nonce_a
        {
            return Err(IpcError::AckMismatch);
        }
        Ok(Channel {
            initiator: self.syn.initiator,
            responder: self.syn.responder,
            token: session_token(ack.initiator, ack.responder, ack.nonce_a, ack.nonce_b),
        })
    }
}

/// The responder's half: accepts a `syn`, emits the `ack` and the channel.
pub fn respond(syn: Syn, rng: &mut XorShift64) -> (Channel, Ack) {
    let nonce_b = rng.next_u32();
    let ack = Ack {
        initiator: syn.initiator,
        responder: syn.responder,
        nonce_a: syn.nonce_a,
        nonce_b,
    };
    (
        Channel {
            initiator: syn.initiator,
            responder: syn.responder,
            token: session_token(syn.initiator, syn.responder, syn.nonce_a, nonce_b),
        },
        ack,
    )
}

/// Telemetry-traced wrappers around the handshake: the same protocol
/// state machines, but every message emits an
/// [`trustlite_obs::Event::IpcSend`] / [`trustlite_obs::Event::IpcRecv`]
/// pair and the completed handshake records the `ipc.round_trip_cycles`
/// histogram (cycle stamps come from the recorder, i.e. the machine time
/// that elapsed between the steps).
pub mod traced {
    use super::{Ack, Channel, Initiator, IpcError, Syn};
    use trustlite_crypto::XorShift64;
    use trustlite_obs::{Event, IpcKind, Recorder};

    /// An in-flight traced handshake.
    #[derive(Debug)]
    pub struct TracedInitiator {
        inner: Initiator,
        started_at: u64,
    }

    /// Starts a traced handshake; emits the `syn` send.
    pub fn start(
        obs: &mut Recorder,
        initiator: u32,
        responder: u32,
        rng: &mut XorShift64,
    ) -> (TracedInitiator, Syn) {
        let (inner, syn) = Initiator::start(initiator, responder, rng);
        let cycle = obs.now();
        obs.metrics.inc("ipc.syn_sent");
        obs.emit(Event::IpcSend {
            cycle,
            from: initiator,
            to: responder,
            kind: IpcKind::Syn,
        });
        (
            TracedInitiator {
                inner,
                started_at: cycle,
            },
            syn,
        )
    }

    /// Responder side: accepts the `syn`, emits its receive and the `ack`
    /// send, and returns the responder's channel.
    pub fn respond(obs: &mut Recorder, syn: Syn, rng: &mut XorShift64) -> (Channel, Ack) {
        let cycle = obs.now();
        obs.metrics.inc("ipc.syn_received");
        obs.emit(Event::IpcRecv {
            cycle,
            from: syn.initiator,
            to: syn.responder,
            kind: IpcKind::Syn,
        });
        let (chan, ack) = super::respond(syn, rng);
        obs.metrics.inc("ipc.ack_sent");
        obs.emit(Event::IpcSend {
            cycle,
            from: syn.responder,
            to: syn.initiator,
            kind: IpcKind::Ack,
        });
        (chan, ack)
    }

    /// Initiator side: completes with the `ack`, emitting its receive and
    /// the round-trip latency on success.
    pub fn complete(
        obs: &mut Recorder,
        init: TracedInitiator,
        ack: Ack,
    ) -> Result<Channel, IpcError> {
        let cycle = obs.now();
        obs.emit(Event::IpcRecv {
            cycle,
            from: ack.responder,
            to: ack.initiator,
            kind: IpcKind::Ack,
        });
        let started_at = init.started_at;
        let chan = init.inner.complete(ack)?;
        obs.metrics.inc("ipc.established");
        obs.metrics
            .observe("ipc.round_trip_cycles", cycle.saturating_sub(started_at));
        Ok(chan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handshake(seed_a: u64, seed_b: u64) -> (Channel, Channel) {
        let mut rng_a = XorShift64::new(seed_a);
        let mut rng_b = XorShift64::new(seed_b);
        let (init, syn) = Initiator::start(0xA, 0xB, &mut rng_a);
        let (chan_b, ack) = respond(syn, &mut rng_b);
        let chan_a = init.complete(ack).expect("honest handshake completes");
        (chan_a, chan_b)
    }

    #[test]
    fn single_round_trip_agrees_on_token() {
        let (a, b) = handshake(1, 2);
        assert_eq!(a.token(), b.token());
        assert_eq!(a, b);
    }

    #[test]
    fn tokens_differ_across_sessions() {
        let (a1, _) = handshake(1, 2);
        let (a2, _) = handshake(3, 4);
        assert_ne!(a1.token(), a2.token());
    }

    #[test]
    fn token_binds_identities_and_nonces() {
        let t = session_token(1, 2, 3, 4);
        assert_ne!(t, session_token(2, 1, 3, 4), "identities");
        assert_ne!(t, session_token(1, 2, 4, 3), "nonce order");
        assert_ne!(t, session_token(1, 2, 3, 5), "responder nonce");
    }

    #[test]
    fn forged_ack_rejected() {
        let mut rng = XorShift64::new(7);
        let (init, syn) = Initiator::start(0xA, 0xB, &mut rng);
        // Wrong nonce echo.
        let forged = Ack {
            initiator: syn.initiator,
            responder: syn.responder,
            nonce_a: syn.nonce_a ^ 1,
            nonce_b: 9,
        };
        assert_eq!(init.complete(forged).unwrap_err(), IpcError::AckMismatch);
    }

    #[test]
    fn wrong_peer_ack_rejected() {
        let mut rng = XorShift64::new(7);
        let (init, syn) = Initiator::start(0xA, 0xB, &mut rng);
        let forged = Ack {
            initiator: syn.initiator,
            responder: 0xC,
            nonce_a: syn.nonce_a,
            nonce_b: 9,
        };
        assert!(init.complete(forged).is_err());
    }

    #[test]
    fn message_authentication() {
        let (a, b) = handshake(5, 6);
        let tag = a.tag(b"transfer 100");
        assert!(b.verify(b"transfer 100", &tag).is_ok());
        assert_eq!(
            b.verify(b"transfer 999", &tag).unwrap_err(),
            IpcError::BadTag
        );
        let mut bad = tag;
        bad[5] ^= 0x80;
        assert!(b.verify(b"transfer 100", &bad).is_err());
    }

    #[test]
    fn traced_handshake_emits_events_and_round_trip() {
        use trustlite_obs::{ObsLevel, Recorder};
        let mut obs = Recorder::new(ObsLevel::Events);
        let mut rng_a = XorShift64::new(1);
        let mut rng_b = XorShift64::new(2);
        obs.set_now(100);
        let (init, syn) = traced::start(&mut obs, 0xA, 0xB, &mut rng_a);
        obs.set_now(150);
        let (chan_b, ack) = traced::respond(&mut obs, syn, &mut rng_b);
        obs.set_now(220);
        let chan_a = traced::complete(&mut obs, init, ack).unwrap();
        assert_eq!(chan_a.token(), chan_b.token());
        // syn send, syn recv, ack send, ack recv.
        assert_eq!(obs.ring.len(), 4);
        assert_eq!(obs.metrics.counter("ipc.established"), 1);
        let h = obs.metrics.histogram("ipc.round_trip_cycles").unwrap();
        assert_eq!(h.sum(), 120, "completed at 220, started at 100");
    }

    #[test]
    fn replayed_ack_from_other_session_rejected() {
        let mut rng_a = XorShift64::new(10);
        let mut rng_b = XorShift64::new(11);
        let (init1, syn1) = Initiator::start(0xA, 0xB, &mut rng_a);
        let (_, ack1) = respond(syn1, &mut rng_b);
        let _ = init1.complete(ack1).unwrap();
        // A second handshake must not accept the first session's ack.
        let (init2, _) = Initiator::start(0xA, 0xB, &mut rng_a);
        assert!(init2.complete(ack1).is_err(), "nonce freshness");
    }
}
