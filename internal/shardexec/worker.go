package shardexec

import (
	"context"
	"fmt"
	"io"

	"repro/internal/fleet"
)

// WorkerMain is the body of a shard-worker process: read one manifest
// from stdin, simulate its device range, write one framed shard
// aggregate to stdout. It returns the process exit code — 0 on
// success, 1 on any failure (the supervisor treats all nonzero exits
// the same: the attempt failed, the error text is on stderr).
//
// cmd/wakesim, cmd/report and cmd/wakesimd route -shardworker here;
// tests drive it directly and through re-executed test binaries.
func WorkerMain(ctx context.Context, stdin io.Reader, stdout, stderr io.Writer) int {
	m, err := ParseManifest(stdin)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	sa, err := fleet.RunShard(ctx, m.Spec, m.Lo, m.Hi, m.Workers)
	if err != nil {
		fmt.Fprintf(stderr, "shardexec: worker shard %d: %v\n", m.Index, err)
		return 1
	}
	sa.Index = m.Index
	if _, err := stdout.Write(fleet.EncodeShard(sa)); err != nil {
		fmt.Fprintf(stderr, "shardexec: worker shard %d: write frame: %v\n", m.Index, err)
		return 1
	}
	return 0
}
