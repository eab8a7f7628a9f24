package mapreduce

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"
)

// EnvWorkerCmd overrides the worker executable the ProcRunner spawns.
// Tests set it to their own test binary (whose TestMain serves the
// worker protocol); unset, the runner re-executes its own binary with
// the "worker" argument.
const EnvWorkerCmd = "MINOANER_MR_WORKER_CMD"

// EnvWorkerProtocol marks a spawned process as a protocol worker. The
// real binary dispatches on its "worker" argument; test binaries —
// which own their argv — intercept on this env before flag parsing
// (see InitTestWorker).
const EnvWorkerProtocol = "MINOANER_MR_PROTOCOL"

// defaultIdleTTL is how long a pooled worker may sit idle before its
// process is reaped. Long enough that a busy pipeline reuses workers
// across dataflow passes; short enough that an abandoned runner does
// not hold processes forever.
const defaultIdleTTL = 10 * time.Second

// ProcRunner executes tasks in `minoaner worker` subprocesses: each
// task is framed onto a worker's stdin and its result read back from
// stdout, with workers pooled and reused across tasks. Any transport
// failure — the process died, a frame was torn or failed its CRC —
// destroys that worker and surfaces as a *WorkerError, so the
// coordinator re-dispatches the task to a fresh process. The pool is
// safe for concurrent RunTask calls; Close reaps the idle processes
// (in-flight workers are reaped as they finish).
type ProcRunner struct {
	// IdleTTL overrides how long an idle pooled worker lives (default
	// 10s). Set before first use.
	IdleTTL time.Duration

	mu     sync.Mutex
	idle   []*workerProc
	closed bool

	spawned  atomic.Int64
	live     atomic.Int64
	killNext atomic.Bool
}

// NewProcRunner returns a ready pool. Workers are spawned lazily, on
// demand, up to the coordinator's in-flight task cap.
func NewProcRunner() *ProcRunner { return &ProcRunner{} }

// Workers reports the number of live worker processes.
func (r *ProcRunner) Workers() int64 { return r.live.Load() }

// Spawned reports the cumulative number of worker processes ever
// started — monotone, so gauges built on it are stable against idle
// reaping.
func (r *ProcRunner) Spawned() int64 { return r.spawned.Load() }

// KillNextTask arms a one-shot fault: the next dispatched task's
// worker is SIGKILLed right after the task is sent and before its
// result is read — a real mid-task process death, used by the
// differential kill tests.
func (r *ProcRunner) KillNextTask() { r.killNext.Store(true) }

// Close reaps the idle workers and marks the pool closed; workers
// still running a task are reaped when it finishes.
func (r *ProcRunner) Close() error {
	r.mu.Lock()
	idle := r.idle
	r.idle = nil
	r.closed = true
	r.mu.Unlock()
	for _, w := range idle {
		w.stopReap()
		r.destroy(w)
	}
	return nil
}

// RunTask implements Runner.
func (r *ProcRunner) RunTask(ctx context.Context, t *Task) (*TaskOut, error) {
	payload, err := encodeTask(t)
	if err != nil {
		return nil, err // a plan-level defect (unregistered job): not retryable
	}
	w, err := r.checkout()
	if err != nil {
		return nil, &WorkerError{Err: err}
	}
	out, jobErr, err := r.roundTrip(ctx, w, payload)
	if err != nil {
		r.destroy(w)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, &WorkerError{Err: err}
	}
	r.checkin(w)
	if jobErr != nil {
		return nil, jobErr
	}
	return out, nil
}

// roundTrip sends one task and reads its reply. The three returns
// separate the job's own failure (jobErr: the worker is healthy, the
// user code failed — fail fast) from transport failure (err: the
// worker is gone or lying — destroy and retry).
func (r *ProcRunner) roundTrip(ctx context.Context, w *workerProc, payload []byte) (out *TaskOut, jobErr, err error) {
	// A cancelled context kills the worker so a long-running task
	// cannot outlive the run that dispatched it.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			w.kill()
		case <-watchDone:
		}
	}()

	if err := writeFrame(w.in, frameTask, payload); err != nil {
		return nil, nil, fmt.Errorf("send task: %w", err)
	}
	if err := w.in.Flush(); err != nil {
		return nil, nil, fmt.Errorf("send task: %w", err)
	}
	if r.killNext.CompareAndSwap(true, false) {
		w.kill() // the armed mid-task fault: task sent, result never arrives
	}
	typ, reply, err := readFrame(w.out)
	if err != nil {
		return nil, nil, fmt.Errorf("read result: %w", err)
	}
	switch typ {
	case frameResult:
		var to TaskOut
		if err := json.Unmarshal(reply, &to); err != nil {
			return nil, nil, fmt.Errorf("decode result: %w", err)
		}
		if to.Counters == nil {
			to.Counters = make(map[string]int64)
		}
		return &to, nil, nil
	case frameError:
		var we wireError
		if err := json.Unmarshal(reply, &we); err != nil {
			return nil, nil, fmt.Errorf("decode error frame: %w", err)
		}
		return nil, errors.New(we.Msg), nil
	}
	return nil, nil, fmt.Errorf("%w: unexpected frame type %d", ErrFrameCorrupt, typ)
}

// checkout hands back an idle worker or spawns a fresh one.
func (r *ProcRunner) checkout() (*workerProc, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errors.New("mapreduce: ProcRunner is closed")
	}
	if n := len(r.idle); n > 0 {
		w := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		w.stopReap()
		return w, nil
	}
	r.mu.Unlock()
	return r.spawn()
}

// checkin returns a healthy worker to the pool and arms its idle
// reaper.
func (r *ProcRunner) checkin(w *workerProc) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.destroy(w)
		return
	}
	ttl := r.IdleTTL
	if ttl <= 0 {
		ttl = defaultIdleTTL
	}
	// Armed before the worker becomes visible in the idle pool: the
	// next checkout may take it, and stop this timer, at once.
	w.reap = time.AfterFunc(ttl, func() { r.reapIdle(w) })
	r.idle = append(r.idle, w)
	r.mu.Unlock()
}

// reapIdle removes a worker from the idle pool (if it is still there)
// and destroys its process.
func (r *ProcRunner) reapIdle(w *workerProc) {
	r.mu.Lock()
	found := false
	for i, iw := range r.idle {
		if iw == w {
			r.idle = append(r.idle[:i], r.idle[i+1:]...)
			found = true
			break
		}
	}
	r.mu.Unlock()
	if found {
		r.destroy(w)
	}
}

// spawn starts one worker process. The worker serves tasks off its
// stdin until it reads EOF — so if this process dies, every worker
// sees its pipe close and exits on its own.
func (r *ProcRunner) spawn() (*workerProc, error) {
	path := os.Getenv(EnvWorkerCmd)
	var args []string
	if path == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("mapreduce: resolve worker executable: %w", err)
		}
		path = exe
	}
	args = append(args, "worker")
	cmd := exec.Command(path, args...)
	cmd.Env = append(os.Environ(), EnvWorkerProtocol+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("mapreduce: spawn worker: %w", err)
	}
	r.spawned.Add(1)
	r.live.Add(1)
	return &workerProc{
		cmd: cmd,
		in:  bufio.NewWriter(stdin),
		out: bufio.NewReader(stdout),
		cls: stdin,
	}, nil
}

// destroy kills a worker's process and reaps it.
func (r *ProcRunner) destroy(w *workerProc) {
	w.kill()
	w.cls.Close()
	_ = w.cmd.Wait()
	r.live.Add(-1)
}

// workerProc is one pooled worker subprocess.
type workerProc struct {
	cmd  *exec.Cmd
	in   *bufio.Writer
	out  *bufio.Reader
	cls  io.Closer
	reap *time.Timer

	killOnce sync.Once
}

func (w *workerProc) kill() {
	w.killOnce.Do(func() {
		if w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
		}
	})
}

func (w *workerProc) stopReap() {
	if w.reap != nil {
		w.reap.Stop()
		w.reap = nil
	}
}
