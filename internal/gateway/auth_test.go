package gateway_test

import (
	"crypto/hmac"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/faaspipe/faaspipe/internal/gateway"
)

// oracleAccepts is the reference HMAC check: the presented MAC must
// equal the crypto/hmac tag byte for byte.
func oracleAccepts(h gateway.HMACAuth, cred gateway.Credential) bool {
	return cred.TenantID != "" && cred.MAC != "" &&
		hmac.Equal([]byte(cred.MAC), []byte(h.Tag(cred.TenantID)))
}

// checkAgainstOracle fails t when Authenticate disagrees with the
// oracle on cred, or accepts under an empty secret.
func checkAgainstOracle(t *testing.T, h gateway.HMACAuth, cred gateway.Credential) {
	t.Helper()
	id, err := h.Authenticate(cred)
	want := len(h.Secret) > 0 && oracleAccepts(h, cred)
	switch {
	case want && err != nil:
		t.Fatalf("secret %q, cred %q/%q: rejected (%v), oracle accepts", h.Secret, cred.TenantID, cred.MAC, err)
	case !want && err == nil:
		t.Fatalf("secret %q, cred %q/%q: accepted as %q, oracle rejects", h.Secret, cred.TenantID, cred.MAC, id)
	case !want && !errors.Is(err, gateway.ErrUnauthenticated):
		t.Fatalf("secret %q, cred %q/%q: error %v, want ErrUnauthenticated", h.Secret, cred.TenantID, cred.MAC, err)
	case want && id != cred.TenantID:
		t.Fatalf("secret %q: authenticated %q as %q", h.Secret, cred.TenantID, id)
	}
}

// mutateMAC returns tag variants the check must judge like the oracle:
// the tag itself, uppercase hex, one char short and long, a non-hex
// byte, a flipped nibble, and empty.
func mutateMAC(tag string, rng *rand.Rand) []string {
	i := rng.Intn(len(tag))
	flipped := []byte(tag)
	if flipped[i] == '0' {
		flipped[i] = '1'
	} else {
		flipped[i] = '0'
	}
	nonHex := []byte(tag)
	nonHex[i] = "gz \x00\xff"[rng.Intn(5)]
	return []string{
		tag,
		strings.ToUpper(tag),
		tag[:len(tag)-1],
		tag + "0",
		string(nonHex),
		string(flipped),
		"",
	}
}

// TestHMACAuthMatchesOracle is a seeded differential test: over random
// secrets (empty, short, one block, longer than a block) and tenant IDs
// (empty, short, past the 128-byte stack buffer), every MAC variant is
// accepted or rejected exactly as the crypto/hmac check decides.
func TestHMACAuthMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	secretLens := []int{0, 1, 9, 32, 64, 65, 200}
	idLens := []int{0, 1, 7, 64, 127, 128, 129, 300}
	accepted := 0
	for round := 0; round < 20; round++ {
		for _, sl := range secretLens {
			h := gateway.HMACAuth{Secret: randBytes(sl)}
			for _, il := range idLens {
				id := string(randBytes(il))
				// A tag minted for this ID, and one for a different ID.
				other := gateway.HMACAuth{Secret: randBytes(sl + 1)}
				for _, tag := range []string{h.Tag(id), h.Tag(id + "x"), other.Tag(id)} {
					for _, mac := range mutateMAC(tag, rng) {
						cred := gateway.Credential{TenantID: id, MAC: mac}
						checkAgainstOracle(t, h, cred)
						if _, err := h.Authenticate(cred); err == nil {
							accepted++
						}
					}
				}
			}
		}
	}
	// Every non-empty secret and non-empty ID accepts its own tag once.
	if want := 20 * (len(secretLens) - 1) * (len(idLens) - 1); accepted != want {
		t.Fatalf("accepted %d credentials, want %d", accepted, want)
	}
}

// TestHMACAuthEmptySecretRejectsAll: the zero HMACAuth authenticates no
// one, including a caller presenting the valid tag under the empty key.
func TestHMACAuthEmptySecretRejectsAll(t *testing.T) {
	for _, h := range []gateway.HMACAuth{{}, {Secret: []byte{}}} {
		for _, id := range []string{"alice", "t000001", strings.Repeat("x", 200)} {
			cred := gateway.Credential{TenantID: id, MAC: h.Tag(id)}
			if !oracleAccepts(h, cred) {
				t.Fatalf("tag under the empty key does not verify for %q", id)
			}
			if got, err := h.Authenticate(cred); !errors.Is(err, gateway.ErrUnauthenticated) {
				t.Errorf("empty secret: %q authenticated as %q, err %v; want ErrUnauthenticated", id, got, err)
			}
		}
	}
}

// TestHMACAuthenticateDoesNotAllocate: the check runs on every
// submission and must not allocate for IDs of up to 128 bytes, the
// stack buffer's size.
func TestHMACAuthenticateDoesNotAllocate(t *testing.T) {
	h := gateway.HMACAuth{Secret: []byte("s3cret")}
	for _, id := range []string{"t000123", strings.Repeat("t", 128)} {
		good := gateway.Credential{TenantID: id, MAC: h.Tag(id)}
		bad := gateway.Credential{TenantID: id, MAC: h.Tag(id + "x")}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := h.Authenticate(good); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Authenticate(bad); err == nil {
				t.Fatal("bad MAC accepted")
			}
		})
		if allocs != 0 {
			t.Fatalf("%d-byte ID: Authenticate allocates %.0f times per accept+reject, want 0", len(id), allocs)
		}
	}
}

// FuzzHMACAuthenticate drives arbitrary secrets, tenant IDs and MACs,
// including MACs derived from the valid tag, through Authenticate and
// the crypto/hmac oracle; they must agree, and an empty secret must
// reject everything.
func FuzzHMACAuthenticate(f *testing.F) {
	for _, s := range []struct {
		secret, id, mac string
		mode            uint8
	}{
		{"s3cret", "alice", "", 0},
		{"s3cret", "alice", "", 1},
		{"s3cret", "alice", "", 2},
		{"s3cret", "alice", "", 3},
		{"s3cret", "alice", "", 4},
		{"", "alice", "", 0},
		{"s3cret", "", "", 0},
		{"s3cret", strings.Repeat("t", 129), "", 0},
		{strings.Repeat("k", 65), "bob", "", 0},
		{"s3cret", "bob", "feedface", 5},
		{"s3cret", "bob", strings.Repeat("z", 64), 5},
	} {
		f.Add([]byte(s.secret), s.id, s.mac, s.mode)
	}
	f.Fuzz(func(t *testing.T, secret []byte, id, mac string, mode uint8) {
		h := gateway.HMACAuth{Secret: secret}
		tag := h.Tag(id)
		switch mode % 6 {
		case 0: // the valid tag
			mac = tag
		case 1: // uppercase hex
			mac = strings.ToUpper(tag)
		case 2: // 63 chars
			mac = tag[:len(tag)-1]
		case 3: // 65 chars
			mac = tag + "0"
		case 4: // the tag with its tail overwritten by fuzz bytes
			n := min(len(mac), len(tag))
			mac = tag[:len(tag)-n] + mac[:n]
		} // 5: the fuzzed MAC as is
		checkAgainstOracle(t, h, gateway.Credential{TenantID: id, MAC: mac})
	})
}
