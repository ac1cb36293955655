package dist

import (
	"fmt"
	"strconv"

	"repro/internal/digest"
)

// Wire protocol version, carried in the config and the manifest. Bump on
// any incompatible change to the frame or manifest schema.
const ProtocolVersion = 1

// Config is the coordinator's run description, served at
// GET /dist/v1/config. Workers fetch it once at startup.
type Config struct {
	Version    int   `json:"version"`
	Spec       Spec  `json:"spec"`
	Ranges     int   `json:"ranges"`
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// leaseRequest is the body of POST /dist/v1/lease.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// Lease is a granted root range: enumerate [Resume, End) and stream
// frames tagged with Attempt. Resume > Start after a re-issue — the
// prefix [Start, Resume) is already confirmed durable at the
// coordinator and must not be re-enumerated.
type Lease struct {
	RangeID int   `json:"range_id"`
	Attempt int   `json:"attempt"`
	Start   int32 `json:"start"`
	Resume  int32 `json:"resume"`
	End     int32 `json:"end"`
	TTLMS   int64 `json:"ttl_ms"`
}

// Frame is one NDJSON line of a range stream
// (POST /dist/v1/ranges/{id}/stream). Every frame refreshes the lease's
// heartbeat. Types:
//
//   - "wm": the root interval [From, To) is complete; Delta is its
//     digest. Intervals are contiguous per attempt (From equals the
//     coordinator's current watermark) and To becomes the new watermark.
//   - "hb": heartbeat only (no watermark progress to report).
//   - "done": the final interval [From, To == range End) with Delta as
//     in "wm", plus Total — the digest of everything this attempt
//     streamed, which the coordinator cross-checks against its own
//     merge of the attempt's deltas before marking the range done.
type Frame struct {
	Type  string      `json:"type"`
	From  int32       `json:"from,omitempty"`
	To    int32       `json:"to,omitempty"`
	Delta *DigestJSON `json:"delta,omitempty"`
	Total *DigestJSON `json:"total,omitempty"`
}

// streamResult is the response body of a range stream (and of lease
// rejections): ok, or a reason the stream was refused.
type streamResult struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// DigestJSON is the wire/manifest form of digest.Digest. The three
// uint64 folds are hex strings: JSON numbers round-trip through float64
// in most decoders and silently lose bits above 2^53, which for a digest
// means false "equal" or false "different" — unacceptable either way.
type DigestJSON struct {
	Count int64  `json:"count"`
	Sum   string `json:"sum"`
	Xor   string `json:"xor"`
	Fold  string `json:"fold"`
}

// ToJSON converts a digest to its wire form.
func ToJSON(d digest.Digest) DigestJSON {
	return DigestJSON{
		Count: d.Count,
		Sum:   fmt.Sprintf("%016x", d.Sum),
		Xor:   fmt.Sprintf("%016x", d.Xor),
		Fold:  fmt.Sprintf("%016x", d.Fold),
	}
}

// FromJSON parses the wire form back into a digest.
func FromJSON(j DigestJSON) (digest.Digest, error) {
	sum, err := strconv.ParseUint(j.Sum, 16, 64)
	if err != nil {
		return digest.Digest{}, fmt.Errorf("dist: bad digest sum %q: %w", j.Sum, err)
	}
	xor, err := strconv.ParseUint(j.Xor, 16, 64)
	if err != nil {
		return digest.Digest{}, fmt.Errorf("dist: bad digest xor %q: %w", j.Xor, err)
	}
	fold, err := strconv.ParseUint(j.Fold, 16, 64)
	if err != nil {
		return digest.Digest{}, fmt.Errorf("dist: bad digest fold %q: %w", j.Fold, err)
	}
	return digest.Digest{Count: j.Count, Sum: sum, Xor: xor, Fold: fold}, nil
}
