// Package kernel implements the trusted light-weight secure kernel that
// IRONHIDE (like MI6's security monitor) runs alongside secure processes
// in the secure cluster. It attests and authenticates secure processes via
// measurement and signature checking — only a process that attests is
// admitted to the secure cluster — and enforces the security-centric bound
// on dynamic hardware isolation: at most one cluster reconfiguration per
// interactive application invocation, which caps the information leakable
// through scheduling timing/termination channels at a small constant.
package kernel

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
)

// Measurement is the SHA-256 digest of a secure process's identity and
// launch configuration — the analogue of an enclave measurement.
type Measurement [sha256.Size]byte

// Measure computes the measurement of a process image.
func Measure(name string, image []byte) Measurement {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(image)
	var m Measurement
	copy(m[:], h.Sum(nil))
	return m
}

// Certificate binds a measurement to a signing authority.
type Certificate struct {
	Measurement Measurement
	Signature   []byte
}

// Sign issues a certificate over a measurement.
func Sign(priv ed25519.PrivateKey, m Measurement) Certificate {
	return Certificate{Measurement: m, Signature: ed25519.Sign(priv, m[:])}
}

// ErrNotAttested is returned when a process fails attestation.
var ErrNotAttested = errors.New("kernel: process failed attestation")

// ErrReconfigBudget is returned when a second reconfiguration is requested
// within one application invocation.
var ErrReconfigBudget = errors.New("kernel: cluster reconfiguration budget exhausted (limit: once per application invocation)")

// Kernel is the secure kernel state.
type Kernel struct {
	trusted       []ed25519.PublicKey
	reconfigLimit int
	reconfigsUsed int
}

// New builds a secure kernel trusting the given signing authorities, with
// the paper's reconfiguration budget of one event per invocation.
func New(trusted ...ed25519.PublicKey) *Kernel {
	return &Kernel{
		trusted:       trusted,
		reconfigLimit: 1,
	}
}

// SetReconfigLimit overrides the reconfiguration budget; the ablation
// experiments use it to quantify what the paper's bound costs.
func (k *Kernel) SetReconfigLimit(n int) { k.reconfigLimit = n }

// Attest verifies that the process image matches the certificate's
// measurement and that a trusted authority signed it. A nil error admits
// the process to the secure cluster; callers start it only then.
func (k *Kernel) Attest(name string, image []byte, cert Certificate) error {
	if Measure(name, image) != cert.Measurement {
		return fmt.Errorf("%w: measurement mismatch for %q", ErrNotAttested, name)
	}
	for _, pub := range k.trusted {
		if ed25519.Verify(pub, cert.Measurement[:], cert.Signature) {
			return nil
		}
	}
	return fmt.Errorf("%w: no trusted authority signed %q", ErrNotAttested, name)
}

// AuthorizeReconfig consumes one unit of the reconfiguration budget,
// failing once the per-invocation bound is reached.
func (k *Kernel) AuthorizeReconfig() error {
	if k.reconfigsUsed >= k.reconfigLimit {
		return ErrReconfigBudget
	}
	k.reconfigsUsed++
	return nil
}

// ReconfigsUsed reports consumed budget.
func (k *Kernel) ReconfigsUsed() int { return k.reconfigsUsed }

// NewInvocation resets the reconfiguration budget for a new interactive
// application invocation.
func (k *Kernel) NewInvocation() { k.reconfigsUsed = 0 }
