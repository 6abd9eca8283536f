package gateway

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
)

// ErrUnauthenticated is returned when no authenticator accepts the
// presented credential.
var ErrUnauthenticated = errors.New("gateway: unauthenticated")

// Credential is what a caller presents at the gateway's front door.
// Static-token auth reads Token; HMAC auth reads TenantID + MAC. A
// credential may carry both — the configured authenticator decides
// what it honors.
type Credential struct {
	// Token is a bearer token (static-token authentication).
	Token string
	// TenantID is the claimed identity for keyed-MAC authentication.
	TenantID string
	// MAC is the hex HMAC-SHA256 of TenantID under the shared secret.
	MAC string
}

// Authenticator maps a credential to a tenant identity. It is the
// pluggable seam of the admission stack: deployments swap in whatever
// scheme their tenants use without the gateway core changing — the
// middleware-component pattern of plugin-loadable auth layers.
type Authenticator interface {
	// Authenticate returns the tenant ID the credential proves, or an
	// error wrapping ErrUnauthenticated.
	Authenticate(cred Credential) (string, error)
}

// StaticTokens authenticates by opaque bearer token: a token-to-tenant
// table, the shape of an API-key tier. Comparison is constant-time per
// candidate so a lookup leaks nothing about how close a guess came.
type StaticTokens map[string]string

// Authenticate implements Authenticator.
func (s StaticTokens) Authenticate(cred Credential) (string, error) {
	if cred.Token == "" {
		return "", ErrUnauthenticated
	}
	for tok, tenant := range s {
		if subtle.ConstantTimeCompare([]byte(tok), []byte(cred.Token)) == 1 {
			return tenant, nil
		}
	}
	return "", ErrUnauthenticated
}

// HMACAuth authenticates self-describing credentials: the caller
// claims a tenant ID and proves it with an HMAC-SHA256 tag under a
// secret shared with the gateway — token issuance without a lookup
// table, the stateless half of the token-middleware pattern.
type HMACAuth struct {
	// Secret is the shared key. An empty secret authenticates no one:
	// anybody can compute a tag under the empty key.
	Secret []byte
}

// Tag mints the hex tag for a tenant ID — the issuance side, used by
// clients (and tests) to build credentials.
func (h HMACAuth) Tag(tenantID string) string {
	mac := hmac.New(sha256.New, h.Secret)
	mac.Write([]byte(tenantID))
	return hex.EncodeToString(mac.Sum(nil))
}

// Authenticate implements Authenticator. It accepts exactly the
// credentials whose MAC equals Tag(TenantID), byte for byte (lowercase
// hex), and runs on every submission, so it computes the tag and its
// hex form in stack buffers and compares them in constant time without
// allocating.
func (h HMACAuth) Authenticate(cred Credential) (string, error) {
	if len(h.Secret) == 0 || cred.TenantID == "" || len(cred.MAC) != hexTagLen {
		return "", ErrUnauthenticated
	}
	sum := h.sum(cred.TenantID)
	var want [hexTagLen]byte
	hex.Encode(want[:], sum[:])
	var diff byte
	for i := range want {
		diff |= want[i] ^ cred.MAC[i]
	}
	if diff != 0 {
		return "", ErrUnauthenticated
	}
	return cred.TenantID, nil
}

// hexTagLen is the length of a hex-encoded HMAC-SHA256 tag.
const hexTagLen = 2 * sha256.Size

// inlineID is the longest tenant ID sum hashes from a stack buffer;
// longer IDs take one heap buffer.
const inlineID = 128

// sum is HMAC-SHA256 of tenantID under the secret (RFC 2104),
// H((K ^ opad) || H((K ^ ipad) || m)), built on sha256.Sum256 over
// stack buffers: crypto/hmac allocates its two digests and the tag
// slice on every call. Tag is computed with crypto/hmac, which keeps
// the two independent.
func (h HMACAuth) sum(tenantID string) [sha256.Size]byte {
	var key [sha256.BlockSize]byte
	if len(h.Secret) > sha256.BlockSize {
		k := sha256.Sum256(h.Secret)
		copy(key[:], k[:])
	} else {
		copy(key[:], h.Secret)
	}
	var buf [sha256.BlockSize + inlineID]byte
	var inner []byte
	if n := sha256.BlockSize + len(tenantID); n <= len(buf) {
		inner = buf[:n]
	} else {
		inner = make([]byte, n)
	}
	for i, b := range key {
		inner[i] = b ^ 0x36
	}
	copy(inner[sha256.BlockSize:], tenantID)
	innerSum := sha256.Sum256(inner)
	var outer [sha256.BlockSize + sha256.Size]byte
	for i, b := range key {
		outer[i] = b ^ 0x5c
	}
	copy(outer[sha256.BlockSize:], innerSum[:])
	return sha256.Sum256(outer[:])
}

// Chain tries authenticators in order, accepting the first success —
// how a gateway fronts multiple credential schemes at once. Errors
// other than ErrUnauthenticated stop the chain.
type Chain []Authenticator

// Authenticate implements Authenticator.
func (c Chain) Authenticate(cred Credential) (string, error) {
	for _, a := range c {
		id, err := a.Authenticate(cred)
		if err == nil {
			return id, nil
		}
		if !errors.Is(err, ErrUnauthenticated) {
			return "", err
		}
	}
	return "", ErrUnauthenticated
}
