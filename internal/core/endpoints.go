package core

import (
	"strings"

	"repro/internal/admin"
	"repro/internal/httpx"
)

// The endpoint map is the one URL layout a server, a gateway and a client
// share, so a gateway routes every request target as the server behind it
// does. It reads a target's path alone, the query string ignored:
//
//	<prefix>            the pack endpoint, with or without its slash: a
//	                    packed message may span services
//	<prefix><Service>   one service; a service is one non-empty path segment
//	                    of printable ASCII, as a URL spells it (RFC 3986)
//	<prefix>Admin       the Admin service (GetStats, SetState)
//	/spi/               the operator endpoints, outside every prefix
//
// and nothing else.

// debugMount is the URL prefix the operator endpoints live under when a
// node's DebugEndpoints is set. It is deliberately outside the service
// prefix so it can never shadow a deployed service.
const debugMount = "/spi/"

// Endpoints is a node's URL layout, named by its service prefix.
type Endpoints struct{ prefix string }

// NewEndpoints is the layout under prefix: "/services/" when prefix is
// empty, and with a trailing slash when it has none. It is the one place a
// PathPrefix is read.
func NewEndpoints(prefix string) Endpoints {
	if prefix == "" {
		prefix = "/services/"
	}
	if !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	return Endpoints{prefix}
}

// Prefix is the service prefix, ending in a slash; a GET of it lists the
// deployed services.
func (e Endpoints) Prefix() string { return e.prefix }

// Pack is the target packed messages are POSTed to: the bare prefix.
func (e Endpoints) Pack() string { return strings.TrimSuffix(e.prefix, "/") }

// Service is the target of one service's single calls.
func (e Endpoints) Service(name string) string { return e.prefix + name }

// Route is what a request target names.
type Route struct {
	Path, Query string
	// Service is the service the path names; "" at the pack endpoint.
	Service string
	// Found is whether the path is the pack endpoint or names one service.
	Found bool
}

// Route reads a request target on its path alone.
func (e Endpoints) Route(target string) Route {
	path, query, _ := strings.Cut(target, "?")
	r := Route{Path: path, Query: query}
	if path == e.prefix || path == e.Pack() {
		r.Found = true
	} else if name, ok := strings.CutPrefix(path, e.prefix); ok && segment(name) {
		r.Service, r.Found = name, true
	}
	return r
}

// segment is whether name is one path segment of printable ASCII. Only such
// a name travels alike in a URL and in the spi:service attribute a gateway
// writes it into: the XML writer replaces a byte that is not an XML
// character, and a server would quote the byte itself.
func segment(name string) bool {
	for i := 0; i < len(name); i++ {
		if c := name[i]; c <= ' ' || c >= 0x7f || c == '/' {
			return false
		}
	}
	return true
}

// Admin is whether r names the Admin service.
func (r Route) Admin() bool { return r.Found && r.Service == admin.ServiceName }

// Debug is whether r lies under the operator endpoints' mount.
func (r Route) Debug() bool { return strings.HasPrefix(r.Path, debugMount) }

// Refuse is a node's answer to a request it does not route as a call: 405
// to a method other than POST, 404 to a target the map does not route; nil
// to a POST it routes.
func (r Route) Refuse(method string) *httpx.Response {
	switch {
	case method != "POST":
		return plainText(405, "SOAP endpoint: POST only\n")
	case !r.Found:
		return plainText(404, "no such endpoint\n")
	}
	return nil
}

// plainText is a text/plain answer with the given status.
func plainText(status int, text string) *httpx.Response {
	resp := httpx.NewResponse(status, []byte(text))
	resp.Header.Set("Content-Type", "text/plain")
	return resp
}
