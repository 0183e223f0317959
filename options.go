package accelstream

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"os"
	"time"

	"accelstream/internal/server"
)

// This file holds the two dial settings that are not part of a
// session's Open frame — the TLS configuration and the dial timeout — and
// the helpers that build TLS configurations. Everything else a session,
// a shard router or a server takes is a field of SessionConfig,
// ShardConfig or ServerConfig. See README.md, "Securing the service".

// DialOption configures Dial and DialPool. The zero set dials plaintext
// TCP with the default timeout.
type DialOption func(*server.DialOptions)

func dialOptions(opts []DialOption) server.DialOptions {
	var o server.DialOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithTLS dials over TLS with the given client configuration. Build one
// with LoadClientTLS, or supply your own (e.g. for mutual TLS). Against a
// plaintext server the handshake fails fast with a clear error.
func WithTLS(cfg *tls.Config) DialOption {
	return func(o *server.DialOptions) { o.TLS = cfg }
}

// WithDialTimeout bounds each connect plus session handshake (TLS and
// Open frame both). The default is 10 seconds; a black-holed endpoint
// fails within the deadline instead of hanging.
func WithDialTimeout(d time.Duration) DialOption {
	return func(o *server.DialOptions) { o.Timeout = d }
}

// LoadServerTLS builds a server TLS configuration from a PEM
// certificate/key pair (self-signed is fine; see README.md for a
// one-liner that generates one).
func LoadServerTLS(certFile, keyFile string) (*tls.Config, error) {
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("accelstream: loading TLS key pair: %w", err)
	}
	return &tls.Config{Certificates: []tls.Certificate{cert}}, nil
}

// LoadClientTLS builds a client TLS configuration. caFile, when
// non-empty, replaces the system roots with the PEM certificates it
// contains (point it at the server's self-signed certificate).
// serverName, when non-empty, overrides the hostname checked against the
// server certificate — needed when dialing by IP or through a tunnel.
// skipVerify disables certificate verification entirely; the link is
// still encrypted, but the server is unauthenticated, so it is for tests
// and local development only.
func LoadClientTLS(caFile, serverName string, skipVerify bool) (*tls.Config, error) {
	cfg := &tls.Config{ServerName: serverName, InsecureSkipVerify: skipVerify}
	if caFile != "" {
		pem, err := os.ReadFile(caFile)
		if err != nil {
			return nil, fmt.Errorf("accelstream: reading CA file: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("accelstream: no certificates found in %s", caFile)
		}
		cfg.RootCAs = pool
	}
	return cfg, nil
}
