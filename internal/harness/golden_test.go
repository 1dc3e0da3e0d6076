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

// golden6CSVDigest pins golden6Config the same way. Specs of up to six
// inputs reach what the 4-input slice never does: 5- and 6-variable NPN
// classes, lutmap's 5-6-input resynthesis and refactoring cones wider
// than six leaves.
const golden6CSVDigest = "6681a67a254c647daa472d6d0180e3877b38fc4cf672e82f34ffd15957ab8864"

// golden6Config runs in two to three seconds.
func golden6Config() Config {
	return Config{Seed: 2024, MaxInputs: 6, MaxSpecs: 10}
}

func TestCSVGoldenDigest(t *testing.T) {
	checkCSVDigest(t, goldenConfig(), goldenCSVDigest)
}

func TestCSVGoldenDigest6(t *testing.T) {
	checkCSVDigest(t, golden6Config(), golden6CSVDigest)
}

func checkCSVDigest(t *testing.T, cfg Config, want string) {
	t.Helper()
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("WriteCSV digest = %s, want %s (%d pairs, %d bytes)",
			got, want, len(res.Pairs), buf.Len())
	}
}
