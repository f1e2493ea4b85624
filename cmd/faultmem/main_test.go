package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// TestUnknownExperimentExitsNonZero locks in the fix for the silent-zero
// exit on unknown subcommand paths: an unrecognized experiment name must
// list the registry and return a non-zero code, through both the `run`
// subcommand and the bare-name sugar.
func TestUnknownExperimentExitsNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"run", "bogus"},
		{"bogus"},
		{"run", "fig99", "-json"},
	} {
		var out, errOut bytes.Buffer
		code := execute(context.Background(), args, &out, &errOut)
		if code == 0 {
			t.Fatalf("%v: exit code 0, want non-zero", args)
		}
		if !strings.Contains(errOut.String(), "fig5") || !strings.Contains(errOut.String(), "fig7") {
			t.Fatalf("%v: stderr does not list the registry:\n%s", args, errOut.String())
		}
	}
}

func TestRunMissingNameExitsNonZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := execute(context.Background(), []string{"run"}, &out, &errOut); code == 0 {
		t.Fatal("bare `run` exited 0")
	}
	if code := execute(context.Background(), nil, &out, &errOut); code == 0 {
		t.Fatal("no arguments exited 0")
	}
}

func TestListAndHelpExitZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := execute(context.Background(), []string{"list"}, &out, &errOut); code != 0 {
		t.Fatalf("list exited %d", code)
	}
	for _, name := range []string{"fig2", "fig4", "fig5", "fig6", "fig7", "table1", "energy"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list missing %q", name)
		}
	}
	if code := execute(context.Background(), []string{"help"}, &out, &errOut); code != 0 {
		t.Fatalf("help exited %d", code)
	}
}

// TestRunSmallExperimentJSON drives a cheap experiment end to end through
// the CLI path: text and JSON outputs, params override, exit code 0.
func TestRunSmallExperimentJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	code := execute(context.Background(), []string{"run", "fig4", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), `"experiment": "fig4"`) {
		t.Fatalf("JSON output missing experiment field:\n%s", out.String())
	}

	out.Reset()
	code = execute(context.Background(), []string{"run", "width", "-params", `{"Rows": 1024}`}, &out, &errOut)
	if code != 0 {
		t.Fatalf("params override exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "shuffle vs full SECDED") {
		t.Fatalf("width table missing:\n%s", out.String())
	}
}

// TestRunCancelledContextExitsNonZero: a pre-cancelled context must fail
// the run with a non-zero code instead of printing empty results.
func TestRunCancelledContextExitsNonZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut bytes.Buffer
	if code := execute(ctx, []string{"run", "fig5", "-quick"}, &out, &errOut); code == 0 {
		t.Fatal("cancelled run exited 0")
	}
	if !strings.Contains(errOut.String(), "cancel") {
		t.Fatalf("stderr does not mention cancellation: %s", errOut.String())
	}
}

// TestRunHelpExitsZero: -h on a run flag set is a help request, not an
// error.
func TestRunHelpExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := execute(context.Background(), []string{"run", "fig5", "-h"}, &out, &errOut); code != 0 {
		t.Fatalf("run -h exited %d", code)
	}
}

// TestRunAllQuickGolden pins every experiment's result bytes: the CLI's
// `run all -quick -json` must print testdata/run_all_quick.json exactly.
// A deliberate result change regenerates that file with the CLI
// (`go run ./cmd/faultmem run all -quick -json`) and says so.
func TestRunAllQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at its quick budget")
	}
	want, err := os.ReadFile("testdata/run_all_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := execute(context.Background(), []string{"run", "all", "-quick", "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		line, col := 1, 1
		for i := 0; i < len(got) && i < len(want) && got[i] == want[i]; i++ {
			if got[i] == '\n' {
				line, col = line+1, 1
			} else {
				col++
			}
		}
		t.Fatalf("run all -quick -json differs from testdata/run_all_quick.json from line %d column %d (%d bytes, want %d)", line, col, len(got), len(want))
	}
}
