package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenCSVDigest is the SHA-256 of the WriteCSV bytes for goldenConfig.
// It pins "same results" for every change to the optimization and metric
// hot paths: a memo, an allocation cut or a parallel loop must leave it
// unchanged. Update it only in a change that alters results on purpose,
// and say so in that change.
const goldenCSVDigest = "2b9777145c6f8978e08bd558fe484553961fc13d1fd107e1da1b1cc9a59a4aab"

// goldenConfig is a small slice of the paper suite (all recipes, all
// flows, all metrics) that runs in about a second.
func goldenConfig() Config {
	return Config{Seed: 2024, MaxInputs: 4, MaxSpecs: 12}
}

func TestCSVGoldenDigest(t *testing.T) {
	res, err := RunContext(context.Background(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenCSVDigest {
		t.Fatalf("WriteCSV digest = %s, want %s (%d pairs, %d bytes)",
			got, goldenCSVDigest, len(res.Pairs), buf.Len())
	}
}
