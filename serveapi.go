package faultmem

import (
	"context"
	"net"

	"faultmem/internal/serve"
	"faultmem/internal/sweep"
)

// This file is the public face of the long-lived campaign service: a
// server that accepts sweep workers and campaign clients on one shared
// port, schedules every admitted campaign over the one shared pool with
// fair-share tickets at shard granularity, streams snapshots and final
// results to clients, and keeps cross-request caches warm between
// submissions. cmd/faultmem's `serve`, `coordinate`, `worker`, `submit`,
// `status`, and `cancel` subcommands are thin shells over exactly these
// calls.

// ServeServer is the campaign service. Campaign results are
// bit-identical to a direct RunExperiment of the same runner knobs —
// independent of scheduling, pool size, and worker churn. Runner moves
// an in-process campaign's shards onto its pool. Stop it with Drain
// (graceful: running jobs finish, new submissions rejected) or Close
// (immediate).
type ServeServer = serve.Server

// ServeConfig tunes the campaign server: auth secret, scheduler
// capacity knobs, snapshot cadence, client resume window, and the
// embedded sweep coordinator's lease. The zero value selects
// production defaults.
type ServeConfig = serve.Config

// SweepConfig (ServeConfig.Sweep) tunes the worker pool's fault-tolerance
// clock, the shard lease, which also sets every worker's heartbeat. The
// zero value selects production defaults.
type SweepConfig = sweep.Config

// SweepStats (ServeServer.PoolStats) are the pool's cumulative
// robustness counters: where shards ran, how many leases expired, and
// how many worker failures, corrupt frames and duplicate results were
// absorbed.
type SweepStats = sweep.Stats

// SweepWorkerConfig tunes a worker's reconnect backoff bounds, compute
// parallelism and shared secret; its heartbeat follows the server's
// lease. The zero value selects production defaults.
type SweepWorkerConfig = sweep.WorkerConfig

// ServeClient is one connection to a campaign server: Submit/Wait for
// campaigns, Status/Cancel/List for lifecycle, Token for session
// resume after a disconnect.
type ServeClient = serve.Client

// ServeOptions configures a client connection (resume token, auth
// secret, snapshot callback).
type ServeOptions = serve.Options

// ServeCampaign is one submission: the experiment name plus the runner
// knobs in exactly the form `faultmem run` accepts, with a fair-share
// priority weight and a free-form label.
type ServeCampaign = serve.Campaign

// ServeFinalResult is one job's terminal outcome: the ExperimentResult
// JSON (byte-identical to a local `faultmem run -json`) or the
// server-side error that ended it.
type ServeFinalResult = serve.FinalResult

// ServeJobStatus is the server's answer to the status/cancel/list
// verbs.
type ServeJobStatus = serve.JobStatus

// ServeJobSnapshot is one periodic partial-state push for a running
// job.
type ServeJobSnapshot = serve.JobSnapshot

// ListenServe starts a campaign server on addr (a TCP listen address
// such as ":7715" or "127.0.0.1:0"). Workers (`faultmem worker`) and
// clients (`faultmem submit`) share the port; the first frame of a
// connection routes it.
func ListenServe(addr string, cfg ServeConfig) (*ServeServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve.NewServer(ln, cfg), nil
}

// DialServe connects to a campaign server and opens (or, with
// ServeOptions.Token, resumes) a client session.
func DialServe(ctx context.Context, addr string, opts ServeOptions) (*ServeClient, error) {
	return serve.Dial(ctx, addr, opts)
}

// RunSweepWorker connects to a server at addr and computes assigned
// shards until the server finishes the sweep (returns nil) or ctx dies
// (returns ctx.Err()). Lost connections are survived by reconnecting
// with jittered backoff; results computed while disconnected are
// re-delivered, and the jobs still computing keep their leases.
func RunSweepWorker(ctx context.Context, addr string, cfg SweepWorkerConfig) error {
	return sweep.RunWorker(ctx, addr, cfg)
}
