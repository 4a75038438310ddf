package kernel

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"testing"
	"testing/quick"
)

func keys(t *testing.T) (ed25519.PublicKey, ed25519.PrivateKey) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func TestMeasureDeterministicAndDistinct(t *testing.T) {
	a := Measure("sssp", []byte("image-a"))
	if a != Measure("sssp", []byte("image-a")) {
		t.Fatal("measurement not deterministic")
	}
	if a == Measure("sssp", []byte("image-b")) {
		t.Fatal("different images measured equal")
	}
	if a == Measure("pr", []byte("image-a")) {
		t.Fatal("different names measured equal")
	}
	// Name/image boundary must matter: ("ab","c") != ("a","bc").
	if Measure("ab", []byte("c")) == Measure("a", []byte("bc")) {
		t.Fatal("measurement ignores the name/image boundary")
	}
}

func TestAttestHappyPath(t *testing.T) {
	pub, priv := keys(t)
	k := New(pub)
	m := Measure("aes", []byte("enclave image"))
	cert := Sign(priv, m)
	if err := k.Attest("aes", []byte("enclave image"), cert); err != nil {
		t.Fatalf("attested process not admitted: %v", err)
	}
}

func TestAttestRejectsTamperedImage(t *testing.T) {
	pub, priv := keys(t)
	k := New(pub)
	cert := Sign(priv, Measure("aes", []byte("good image")))
	err := k.Attest("aes", []byte("evil image"), cert)
	if !errors.Is(err, ErrNotAttested) {
		t.Fatalf("tampered image attested: %v", err)
	}
}

func TestAttestRejectsUntrustedSigner(t *testing.T) {
	pub, _ := keys(t)
	_, evilPriv := keys(t)
	k := New(pub)
	m := Measure("aes", []byte("image"))
	cert := Sign(evilPriv, m)
	if err := k.Attest("aes", []byte("image"), cert); !errors.Is(err, ErrNotAttested) {
		t.Fatalf("untrusted signature attested: %v", err)
	}
}

func TestAttestRejectsForgedSignature(t *testing.T) {
	pub, priv := keys(t)
	k := New(pub)
	m := Measure("aes", []byte("image"))
	cert := Sign(priv, m)
	cert.Signature[0] ^= 0xFF
	if err := k.Attest("aes", []byte("image"), cert); !errors.Is(err, ErrNotAttested) {
		t.Fatalf("forged signature attested: %v", err)
	}
}

func TestMultipleTrustedAuthorities(t *testing.T) {
	pubA, _ := keys(t)
	pubB, privB := keys(t)
	k := New(pubA, pubB)
	m := Measure("pr", []byte("image"))
	if err := k.Attest("pr", []byte("image"), Sign(privB, m)); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigBudget(t *testing.T) {
	k := New()
	if err := k.AuthorizeReconfig(); err != nil {
		t.Fatalf("first reconfiguration refused: %v", err)
	}
	if err := k.AuthorizeReconfig(); !errors.Is(err, ErrReconfigBudget) {
		t.Fatalf("second reconfiguration allowed: %v", err)
	}
	if k.ReconfigsUsed() != 1 {
		t.Fatalf("used = %d", k.ReconfigsUsed())
	}
	k.NewInvocation()
	if err := k.AuthorizeReconfig(); err != nil {
		t.Fatalf("budget not reset on new invocation: %v", err)
	}
}

func TestReconfigLimitOverride(t *testing.T) {
	k := New()
	k.SetReconfigLimit(3)
	for i := 0; i < 3; i++ {
		if err := k.AuthorizeReconfig(); err != nil {
			t.Fatalf("authorization %d refused: %v", i, err)
		}
	}
	if err := k.AuthorizeReconfig(); err == nil {
		t.Fatal("limit override not enforced")
	}
}

// Property: attestation accepts exactly the (name, image) pair that was
// measured and signed, never any other pair.
func TestAttestationSoundness(t *testing.T) {
	pub, priv := keys(t)
	f := func(name string, image, otherImage []byte) bool {
		k := New(pub)
		cert := Sign(priv, Measure(name, image))
		if k.Attest(name, image, cert) != nil {
			return false
		}
		if string(image) != string(otherImage) {
			if k.Attest(name, otherImage, cert) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
