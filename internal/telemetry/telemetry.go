// Package telemetry is the end-to-end tracing and latency-distribution
// layer over the conversion pipeline: per-job traces assembled from the
// structured event log (trace.go), fixed-bucket histogram instruments
// and gauges with a Prometheus text exporter (hist.go), and the shared
// operational debug plane — pprof, expvar, /statusz — mounted by both
// the CLI and the daemon (debug.go).
//
// The paper's cost model is per stage: analysis, conversion, code
// generation, verification each carry their own price, and the
// Conversion Supervisor is the facility expected to account for them.
// This package turns the PR 2 event log into that accounting — one
// TraceID per job, one span per program, child spans for stage
// attempts, retries, cache probes, and verification passes — without
// giving up the repository's determinism contract: every ID is derived
// by domain-separated SHA-256 from the trace ID and the span's
// structural path (program name plus that program's event ordinal),
// never from wall clock or RNG, so the span tree is byte-identical at
// any parallelism once timing fields are omitted.
//
// Trace context crosses process boundaries as a W3C traceparent header
// (ParseTraceparent/Traceparent), so daemon callers propagate their own
// TraceID and read the finished tree back from GET /v1/jobs/{id}/trace.
package telemetry

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
)

// TraceID identifies one job or Convert run: the W3C trace-id, 16
// bytes rendered as 32 lowercase hex digits.
type TraceID [16]byte

// SpanID identifies one span within a trace: the W3C parent-id, 8
// bytes rendered as 16 lowercase hex digits.
type SpanID [8]byte

// String renders the 32-digit lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports the all-zero (invalid per W3C) trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the 16-digit lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports the all-zero (invalid per W3C) span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// derive hashes domain-separated, length-prefixed parts — the same
// construction internal/fingerprint uses, so concatenation ambiguity
// cannot produce colliding IDs. Span derivation runs once per event on
// the pipeline's hot path, so the input is assembled in one (usually
// stack-resident) buffer and hashed with a single Sum256 — no Digest
// allocation, no intermediate strings.
func derive(domain string, trace []byte, parts ...string) [sha256.Size]byte {
	buf := make([]byte, 0, 128)
	buf = append(buf, domain...)
	buf = append(buf, trace...)
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		buf = append(buf, n[:]...)
		buf = append(buf, p...)
	}
	return sha256.Sum256(buf)
}

// DeriveTraceID derives a deterministic trace ID from content parts —
// the job fingerprint plus submission index, per the determinism
// contract. Distinct part lists yield distinct IDs.
func DeriveTraceID(parts ...string) TraceID {
	var t TraceID
	sum := derive("traceid", nil, parts...)
	copy(t[:], sum[:])
	if t.IsZero() { // W3C forbids the all-zero ID
		t[15] = 1
	}
	return t
}

// DeriveSpanID derives a deterministic span ID from its trace and the
// span's structural path parts.
func DeriveSpanID(t TraceID, parts ...string) SpanID {
	var s SpanID
	sum := derive("spanid", t[:], parts...)
	copy(s[:], sum[:])
	if s.IsZero() {
		s[7] = 1
	}
	return s
}

// Traceparent renders the W3C traceparent header (version 00, sampled)
// for a trace/span pair — what the daemon injects into submission
// responses so callers can continue the trace.
func Traceparent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header into its trace and
// parent-span IDs. Malformed headers — wrong field lengths or
// separators, anything but lowercase hex digits, the forbidden version
// ff, or all-zero IDs — are rejected (W3C Trace Context §3.2), so
// callers fall back to a derived trace ID.
func ParseTraceparent(h string) (TraceID, SpanID, error) {
	var t TraceID
	var s SpanID
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return t, s, fmt.Errorf("traceparent: malformed header %q", h)
	}
	ver := h[0:2]
	if !lowerHex(ver) || ver == "ff" {
		return t, s, fmt.Errorf("traceparent: bad version %q", ver)
	}
	// Version 00 has exactly four fields; later versions may append
	// more, each after a '-'.
	if len(h) > 55 && (ver == "00" || h[55] != '-') {
		return t, s, fmt.Errorf("traceparent: malformed header %q", h)
	}
	if !lowerHex(h[3:35]) {
		return t, s, fmt.Errorf("traceparent: bad trace-id %q", h[3:35])
	}
	if !lowerHex(h[36:52]) {
		return t, s, fmt.Errorf("traceparent: bad parent-id %q", h[36:52])
	}
	if !lowerHex(h[53:55]) {
		return t, s, fmt.Errorf("traceparent: bad flags %q", h[53:55])
	}
	// Both fields were checked as lowercase hex of the right length, so
	// decoding cannot fail.
	_, _ = hex.Decode(t[:], []byte(h[3:35]))
	_, _ = hex.Decode(s[:], []byte(h[36:52]))
	if t.IsZero() || s.IsZero() {
		return t, s, fmt.Errorf("traceparent: all-zero ID")
	}
	return t, s, nil
}

// lowerHex reports whether s is made of lowercase hex digits only.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ordinal renders a span ordinal for ID-derivation paths.
func ordinal(n int) string { return strconv.Itoa(n) }

// traceKey carries a TraceBuilder through a context alongside the
// obs.Emitter, so pipeline layers can attach spans to the active trace.
type traceKey struct{}

// WithTrace returns a context carrying the trace builder; a nil
// builder returns ctx unchanged.
func WithTrace(ctx context.Context, b *TraceBuilder) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, b)
}

// TraceFrom extracts the context's trace builder; nil when the run is
// untraced.
func TraceFrom(ctx context.Context) *TraceBuilder {
	b, _ := ctx.Value(traceKey{}).(*TraceBuilder)
	return b
}
