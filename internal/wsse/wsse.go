// Package wsse implements a WS-Security-style SOAP header block:
// a UsernameToken with nonce/timestamp plus an HMAC-SHA256 signature over
// the canonical body.
//
// The paper's conclusion argues that "if some Web Services specifications
// add the overhead to SOAP Header, such as WS-security, the merit of our
// approach can be greater", and names experiments with WS-Security as
// future work. This package makes that experiment runnable: it adds a
// realistic few-hundred-byte authenticated header to every envelope, which
// is per-message overhead the pack interface amortizes across M requests.
//
// The construction follows the shape of OASIS WSS 1.0 UsernameToken
// profile (password digest = Base64(SHA256(nonce + created + secret)))
// with an added body MAC; it is intentionally self-contained rather than a
// full XML-DSig implementation, which the stdlib-only constraint rules out
// and the experiment does not need — what matters for the measurement is
// the header's size and verification cost.
package wsse

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/xmldom"
	"repro/internal/xmltext"
)

// Namespace and element names of the header block.
const (
	// NS is the WS-Security extension namespace (OASIS WSS 1.0).
	NS = "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-secext-1.0.xsd"
	// Prefix is the conventional prefix.
	Prefix = "wsse"
	// ElemSecurity is the header block's local name.
	ElemSecurity = "Security"
)

// Clock abstracts time for tests.
type Clock func() time.Time

// Signer produces Security header blocks for outgoing envelopes. It
// implements the client-side HeaderProvider contract of package core.
type Signer struct {
	// Username identifies the caller.
	Username string
	// Secret is the shared key for digest and MAC computation.
	Secret []byte
	// MustUnderstand marks the header mustUnderstand="1" so unaware
	// receivers fault instead of silently skipping authentication.
	MustUnderstand bool
	// Now supplies timestamps (defaults to time.Now).
	Now Clock
}

// MakeHeaders builds the Security block covering the given canonical body.
func (s *Signer) MakeHeaders(body []byte) ([]*xmldom.Element, error) {
	if s.Username == "" || len(s.Secret) == 0 {
		return nil, errors.New("wsse: signer needs username and secret")
	}
	now := time.Now
	if s.Now != nil {
		now = s.Now
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("wsse: nonce: %w", err)
	}
	created := now().UTC().Format(time.RFC3339)

	sec := xmldom.NewElement(xmltext.Name{Prefix: Prefix, Local: ElemSecurity})
	sec.DeclareNamespace(Prefix, NS)
	if s.MustUnderstand {
		sec.DeclareNamespace("S", "http://schemas.xmlsoap.org/soap/envelope/")
		sec.SetAttr(xmltext.Name{Prefix: "S", Local: "mustUnderstand"}, "1")
	}

	tok := sec.AddElement(xmltext.Name{Prefix: Prefix, Local: "UsernameToken"})
	tok.AddElement(xmltext.Name{Prefix: Prefix, Local: "Username"}).SetText(s.Username)
	tok.AddElement(xmltext.Name{Prefix: Prefix, Local: "Nonce"}).
		SetText(base64.StdEncoding.EncodeToString(nonce))
	tok.AddElement(xmltext.Name{Prefix: Prefix, Local: "Created"}).SetText(created)
	tok.AddElement(xmltext.Name{Prefix: Prefix, Local: "PasswordDigest"}).
		SetText(passwordDigest(nonce, created, s.Secret))

	sig := sec.AddElement(xmltext.Name{Prefix: Prefix, Local: "BodySignature"})
	sig.AddElement(xmltext.Name{Prefix: Prefix, Local: "Algorithm"}).SetText("hmac-sha256")
	sig.AddElement(xmltext.Name{Prefix: Prefix, Local: "Value"}).
		SetText(bodyMAC(nonce, created, s.Secret, body))

	return []*xmldom.Element{sec}, nil
}

// passwordDigest is Base64(SHA256(nonce || created || secret)).
func passwordDigest(nonce []byte, created string, secret []byte) string {
	h := sha256.New()
	h.Write(nonce)
	h.Write([]byte(created))
	h.Write(secret)
	return base64.StdEncoding.EncodeToString(h.Sum(nil))
}

// bodyMAC is Base64(HMAC-SHA256(secret, nonce || created || body)).
func bodyMAC(nonce []byte, created string, secret, body []byte) string {
	m := hmac.New(sha256.New, secret)
	m.Write(nonce)
	m.Write([]byte(created))
	m.Write(body)
	return base64.StdEncoding.EncodeToString(m.Sum(nil))
}

// maxAge is the freshness window: a token created further than this from the
// verifier's clock, either way, is rejected, and a nonce is remembered for
// as long.
const maxAge = 5 * time.Minute

// Verifier validates Security header blocks on the server. It implements
// the HeaderProcessor contract of package core.
type Verifier struct {
	// Secrets maps usernames to shared keys.
	Secrets map[string][]byte
	// Now supplies the verification time (defaults to time.Now).
	Now Clock

	// seen remembers recent nonces for replay rejection.
	mu   sync.Mutex
	seen map[string]time.Time
}

// HeaderName identifies the blocks this processor consumes.
func (v *Verifier) HeaderName() (string, string) { return NS, ElemSecurity }

// ProcessHeader verifies one Security block against the canonical body.
func (v *Verifier) ProcessHeader(block *xmldom.Element, body []byte) error {
	tok := block.Child(NS, "UsernameToken")
	if tok == nil {
		return errors.New("wsse: missing UsernameToken")
	}
	username := childText(tok, "Username")
	nonceB64 := childText(tok, "Nonce")
	created := childText(tok, "Created")
	digest := childText(tok, "PasswordDigest")
	if username == "" || nonceB64 == "" || created == "" || digest == "" {
		return errors.New("wsse: incomplete UsernameToken")
	}
	secret, ok := v.Secrets[username]
	if !ok {
		return fmt.Errorf("wsse: unknown user %q", username)
	}
	nonce, err := base64.StdEncoding.DecodeString(nonceB64)
	if err != nil {
		return errors.New("wsse: malformed nonce")
	}

	now := time.Now
	if v.Now != nil {
		now = v.Now
	}
	ts, err := time.Parse(time.RFC3339, created)
	if err != nil {
		return errors.New("wsse: malformed Created timestamp")
	}
	age := now().Sub(ts)
	if age > maxAge || age < -maxAge {
		return errors.New("wsse: token expired")
	}

	if !hmac.Equal([]byte(digest), []byte(passwordDigest(nonce, created, secret))) {
		return errors.New("wsse: bad password digest")
	}

	sig := block.Child(NS, "BodySignature")
	if sig == nil {
		return errors.New("wsse: missing BodySignature")
	}
	if alg := childText(sig, "Algorithm"); alg != "hmac-sha256" {
		return fmt.Errorf("wsse: unsupported algorithm %q", alg)
	}
	want := bodyMAC(nonce, created, secret, body)
	if !hmac.Equal([]byte(childText(sig, "Value")), []byte(want)) {
		return errors.New("wsse: body signature mismatch")
	}

	// Replay protection: a (user, nonce) pair may be used once per window.
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.seen == nil {
		v.seen = make(map[string]time.Time)
	}
	key := username + "|" + nonceB64
	cutoff := now().Add(-maxAge)
	for k, t := range v.seen {
		if t.Before(cutoff) {
			delete(v.seen, k)
		}
	}
	if _, replay := v.seen[key]; replay {
		return errors.New("wsse: replayed nonce")
	}
	v.seen[key] = now()
	return nil
}

func childText(el *xmldom.Element, local string) string {
	c := el.Child(NS, local)
	if c == nil {
		return ""
	}
	return c.Text()
}
