package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"faultmem"
)

// The serve-mode verbs: `faultmem serve` runs the long-lived campaign
// server (workers and clients share its port), and `faultmem submit`,
// `status`, and `cancel` are its client surface. The shared secret for
// all of them defaults to the FAULTMEM_AUTH_TOKEN environment variable
// so it stays out of process listings.

// authTokenEnv is the environment variable every -auth-token flag
// defaults to.
const authTokenEnv = "FAULTMEM_AUTH_TOKEN"

// serveCmd runs the campaign server until interrupted (Ctrl-C) or
// SIGTERMed, then drains gracefully: running campaigns finish (bounded
// by -drain-timeout), their finals are delivered, new submissions are
// rejected.
func serveCmd(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultmem serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:7715", "TCP address to accept workers and clients on")
	authToken := fs.String("auth-token", os.Getenv(authTokenEnv),
		"shared secret required from workers and clients (default $"+authTokenEnv+")")
	workerSlots := fs.Int("worker-slots", 0, "scheduler tickets per connected worker (0 = default)")
	localWorkers := fs.Int("local-workers", 0, "shards computed locally when the pool is empty (0 = all cores)")
	clientInflight := fs.Int("client-inflight", 0, "per-client concurrent shard cap (0 = uncapped)")
	snapshotEvery := fs.Duration("snapshot-every", 0, "partial-result push period (0 = default)")
	clientTTL := fs.Duration("client-ttl", 0, "resume window for disconnected clients (0 = default)")
	lease := fs.Duration("lease", 0, "worker shard lease before reassignment (0 = default)")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "how long a drain waits for running campaigns (0 = forever)")
	verbose := fs.Bool("verbose", false, "log job lifecycle, client and worker churn on stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "faultmem serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	cfg := faultmem.ServeConfig{
		AuthToken:      *authToken,
		WorkerSlots:    *workerSlots,
		LocalWorkers:   *localWorkers,
		ClientInflight: *clientInflight,
		SnapshotEvery:  *snapshotEvery,
		ClientTTL:      *clientTTL,
	}
	cfg.Sweep.Lease = *lease
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "faultmem serve: "+format+"\n", args...)
		}
	}
	srv, err := faultmem.ListenServe(*listen, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "faultmem serve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "faultmem serve: listening on %s\n", srv.Addr())

	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	defer signal.Stop(term)
	select {
	case <-ctx.Done():
	case <-term:
	}

	fmt.Fprintln(stderr, "faultmem serve: draining")
	dctx := context.Background()
	if *drainTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(dctx, *drainTimeout)
		defer cancel()
	}
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(stderr, "faultmem serve: drain: %v\n", err)
		return 1
	}
	st := srv.PoolStats()
	fmt.Fprintf(stderr, "faultmem serve: stopped (%d shards remote, %d local, %d reassigned)\n",
		st.RemoteShards, st.LocalShards, st.Reassigned)
	return 0
}

// clientFlags is the connection half every client verb shares.
type clientFlags struct {
	connect *string
	auth    *string
	token   *string
}

func addClientFlags(fs *flag.FlagSet) clientFlags {
	return clientFlags{
		connect: fs.String("connect", "127.0.0.1:7715", "campaign server address to dial"),
		auth: fs.String("auth-token", os.Getenv(authTokenEnv),
			"shared secret for the server (default $"+authTokenEnv+")"),
		token: fs.String("token", "", "session token to resume (from a previous submit)"),
	}
}

func (cf clientFlags) dial(ctx context.Context, opts faultmem.ServeOptions, stderr io.Writer) (*faultmem.ServeClient, error) {
	opts.Token = *cf.token
	opts.Auth = *cf.auth
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	c, err := faultmem.DialServe(dctx, *cf.connect, opts)
	if err != nil {
		return nil, err
	}
	if c.Draining() {
		fmt.Fprintln(stderr, "faultmem: note: server is draining — running jobs finish, new submissions are rejected")
	}
	return c, nil
}

// submitCmd submits one campaign, streams its snapshots with -progress,
// and renders the final result exactly like `faultmem run` would.
func submitCmd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultmem submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cf := addClientFlags(fs)
	label := fs.String("label", "", "free-form annotation echoed in status listings")
	priority := fs.Int("priority", 0, "fair-share weight (0/1 = default; higher gets more concurrent shards)")
	detach := fs.Bool("detach", false, "submit and exit immediately, printing the job ID and session token")
	jsonOut := fs.Bool("json", false, "emit the Result JSON")
	csvOut := fs.Bool("csv", false, "emit CSV tables")
	rf := addRunFlags(fs, "Monte-Carlo worker goroutines on the serving side (0 = all cores)")
	progress := fs.Bool("progress", false, "report streamed partial-state snapshots on stderr")
	timeout := fs.Duration("timeout", 0, "give up waiting after this duration (0 = none; the job keeps running)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "faultmem submit: want exactly one experiment name\n\n")
		printExperiments(stderr)
		return 2
	}
	name := fs.Arg(0)

	r, err := rf.runner()
	if err != nil {
		fmt.Fprintf(stderr, "faultmem submit: %v\n", err)
		return 2
	}
	spec := faultmem.ServeCampaign{
		Experiment: name,
		Label:      *label,
		Priority:   *priority,
		Seed:       r.Seed,
		Quick:      r.Quick,
		Workers:    r.Workers,
		Accum:      r.Accum,
		Bins:       r.Bins,
		Params:     []byte(*rf.params),
	}

	opts := faultmem.ServeOptions{}
	if *progress {
		opts.OnSnapshot = func(snap faultmem.ServeJobSnapshot, seq uint64) {
			if len(snap.Stages) == 0 {
				fmt.Fprintf(stderr, "\r[job %d] %s", snap.ID, snap.State)
				return
			}
			for _, sp := range snap.Stages {
				fmt.Fprintf(stderr, "\r[job %d] %s %d/%d", snap.ID, sp.Stage, sp.Done, sp.Total)
			}
		}
	}
	c, err := cf.dial(ctx, opts, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "faultmem submit: %v\n", err)
		return 1
	}
	defer c.Close()

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	id, err := c.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintf(stderr, "faultmem submit: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "faultmem submit: job %d admitted (session token %s)\n", id, c.Token())
	if *detach {
		fmt.Fprintf(stdout, "%d\n", id)
		return 0
	}

	f, err := c.Wait(ctx, id)
	if *progress {
		fmt.Fprintln(stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "faultmem submit: %v\nfaultmem submit: job %d may still be running; resume with -token %s\n",
			err, id, c.Token())
		return 1
	}
	if f.Err != "" {
		fmt.Fprintf(stderr, "faultmem submit: job %d: %s\n", id, f.Err)
		return 1
	}
	return renderFinal(f.Result, *jsonOut, *csvOut, stdout, stderr)
}

// renderFinal renders a job's ExperimentResult JSON the way `faultmem
// run` renders a local result: raw JSON (byte-identical to run -json),
// CSV, or aligned text.
func renderFinal(resultJSON []byte, jsonOut, csvOut bool, stdout, stderr io.Writer) int {
	if jsonOut {
		if _, err := fmt.Fprintf(stdout, "%s\n", resultJSON); err != nil {
			fmt.Fprintf(stderr, "faultmem submit: %v\n", err)
			return 1
		}
		return 0
	}
	var res faultmem.ExperimentResult
	if err := json.Unmarshal(resultJSON, &res); err != nil {
		fmt.Fprintf(stderr, "faultmem submit: decoding result: %v\n", err)
		return 1
	}
	var rerr error
	if csvOut {
		rerr = res.RenderCSV(stdout, true)
	} else {
		rerr = res.Render(stdout)
	}
	if rerr == nil {
		_, rerr = fmt.Fprintln(stdout)
	}
	if rerr != nil {
		fmt.Fprintf(stderr, "faultmem submit: %v\n", rerr)
		return 1
	}
	return 0
}

// statusCmd shows one job's status (with a job ID argument) or lists
// every job the server knows.
func statusCmd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultmem status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cf := addClientFlags(fs)
	jsonOut := fs.Bool("json", false, "emit the status as JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintf(stderr, "faultmem status: want at most one job ID\n")
		return 2
	}
	c, err := cf.dial(ctx, faultmem.ServeOptions{}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "faultmem status: %v\n", err)
		return 1
	}
	defer c.Close()
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()

	var list []faultmem.ServeJobStatus
	if fs.NArg() == 1 {
		id, perr := strconv.ParseUint(fs.Arg(0), 10, 64)
		if perr != nil {
			fmt.Fprintf(stderr, "faultmem status: bad job ID %q\n", fs.Arg(0))
			return 2
		}
		st, serr := c.Status(cctx, id)
		if serr != nil {
			fmt.Fprintf(stderr, "faultmem status: %v\n", serr)
			return 1
		}
		list = []faultmem.ServeJobStatus{st}
	} else if list, err = c.List(cctx); err != nil {
		fmt.Fprintf(stderr, "faultmem status: %v\n", err)
		return 1
	}
	return renderStatuses(list, *jsonOut, stdout, stderr, "status")
}

// cancelCmd cancels one running job and prints its resulting status.
func cancelCmd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultmem cancel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cf := addClientFlags(fs)
	jsonOut := fs.Bool("json", false, "emit the status as JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "faultmem cancel: want exactly one job ID\n")
		return 2
	}
	id, perr := strconv.ParseUint(fs.Arg(0), 10, 64)
	if perr != nil {
		fmt.Fprintf(stderr, "faultmem cancel: bad job ID %q\n", fs.Arg(0))
		return 2
	}
	c, err := cf.dial(ctx, faultmem.ServeOptions{}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "faultmem cancel: %v\n", err)
		return 1
	}
	defer c.Close()
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	st, err := c.Cancel(cctx, id)
	if err != nil {
		fmt.Fprintf(stderr, "faultmem cancel: %v\n", err)
		return 1
	}
	return renderStatuses([]faultmem.ServeJobStatus{st}, *jsonOut, stdout, stderr, "cancel")
}

// renderStatuses prints job statuses as an aligned table or JSON.
func renderStatuses(list []faultmem.ServeJobStatus, jsonOut bool, stdout, stderr io.Writer, verb string) int {
	if jsonOut {
		out, err := json.MarshalIndent(list, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "faultmem %s: %v\n", verb, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", out)
		return 0
	}
	fmt.Fprintf(stdout, "%-6s %-14s %-10s %-8s %-12s %s\n", "JOB", "EXPERIMENT", "STATE", "PRIORITY", "PROGRESS", "LABEL")
	for _, st := range list {
		done, total := 0, 0
		for _, sp := range st.Stages {
			done += sp.Done
			total += sp.Total
		}
		prog := "-"
		if total > 0 {
			prog = fmt.Sprintf("%d/%d", done, total)
		}
		fmt.Fprintf(stdout, "%-6d %-14s %-10s %-8d %-12s %s\n",
			st.ID, st.Experiment, st.State, st.Priority, prog, st.Label)
		if st.Error != "" {
			fmt.Fprintf(stdout, "       error: %s\n", st.Error)
		}
	}
	return 0
}

// listCmd prints the experiment registry, optionally as JSON (name,
// description, default params) for tooling.
func listCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultmem list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the registry as JSON (name, description, default params)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "faultmem list: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if !*jsonOut {
		printExperiments(stdout)
		return 0
	}
	type listing struct {
		Name          string          `json:"name"`
		Description   string          `json:"description,omitempty"`
		DefaultParams json.RawMessage `json:"default_params,omitempty"`
	}
	var out []listing
	for _, name := range faultmem.Experiments() {
		desc, _ := faultmem.DescribeExperiment(name)
		l := listing{Name: name, Description: desc}
		if e, ok := faultmem.LookupExperiment(name); ok {
			if b, err := json.Marshal(e.DefaultParams()); err == nil {
				l.DefaultParams = b
			}
		}
		out = append(out, l)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "faultmem list: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
