package mapreduce

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
)

// TestMain doubles this test binary as a worker executable: a spawned
// copy (EnvWorkerProtocol set) serves the task protocol instead of
// running the suite, and the parent points EnvWorkerCmd at itself so
// every ProcRunner below spawns workers that loop back here.
func TestMain(m *testing.M) {
	InitTestWorker()
	os.Exit(m.Run())
}

// The registry entries the proc tests ship across the process
// boundary. Registered at init so a spawned worker (whose TestMain
// runs after package init) can resolve them too.
func init() {
	Register("test-wordcount", func(string) (Job, error) {
		return wordCount(), nil
	})
	Register("test-explode", func(string) (Job, error) {
		return Job{
			Name: "test-explode",
			Map: func(input string, emit func(KV)) error {
				return errors.New("exploded deterministically")
			},
			Reduce: sumReducer,
		}, nil
	})
}

// procInputs is a corpus big enough that every worker of a multi-task
// run sees a split and every partition is non-empty.
func procInputs() []string {
	var inputs []string
	for i := 0; i < 120; i++ {
		inputs = append(inputs, fmt.Sprintf("w%d shared w%d tail%d", i%13, i%5, i%29))
	}
	return inputs
}

// registeredWordCount resolves the test job through the registry — the
// same construction path the real drivers use, so the Spec travels.
func registeredWordCount(t *testing.T) Job {
	t.Helper()
	job, err := NewJob("test-wordcount", "")
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestProcRunnerBitIdentical is the engine-level differential: the same
// plan executed on worker subprocesses must produce byte-identical
// output and identical task-level counters to the in-process runner.
func TestProcRunnerBitIdentical(t *testing.T) {
	job := registeredWordCount(t)
	inputs := procInputs()
	local, err := Run(job, inputs, Config{Workers: 3, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}

	pr := NewProcRunner()
	defer pr.Close()
	proc, err := Run(job, inputs, Config{Workers: 3, Partitions: 4, Runner: pr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(proc.Output, local.Output) {
		t.Errorf("proc output differs from local:\nproc  %v\nlocal %v", proc.Output, local.Output)
	}
	for _, c := range []string{"map.in", "map.out", "shuffle.keys", "shuffle.bytes", "reduce.out"} {
		if got, want := proc.Counters.Get(c), local.Counters.Get(c); got != want {
			t.Errorf("counter %s: proc %d, local %d", c, got, want)
		}
	}
	if pr.Spawned() == 0 {
		t.Error("no worker processes spawned")
	}
}

// TestProcRunnerMidTaskKill SIGKILLs a worker after a task is sent and
// before its result is read — a real process death mid-task. The
// coordinator must retry on a fresh worker and the output must not
// change.
func TestProcRunnerMidTaskKill(t *testing.T) {
	job := registeredWordCount(t)
	inputs := procInputs()
	local, err := Run(job, inputs, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	pr := NewProcRunner()
	defer pr.Close()
	pr.KillNextTask()
	proc, err := Run(job, inputs, Config{Workers: 2, Runner: pr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(proc.Output, local.Output) {
		t.Error("output changed after mid-task worker kill")
	}
	if proc.Counters.Get("task.retries") == 0 {
		t.Error("mid-task kill did not register a retry")
	}
}

// TestProcRunnerJobErrorFailsFast: a deterministic job failure must
// cross the pipe as an error frame and fail the run without burning
// the retry budget — the worker is healthy, the user code is not.
func TestProcRunnerJobErrorFailsFast(t *testing.T) {
	job, err := NewJob("test-explode", "")
	if err != nil {
		t.Fatal(err)
	}
	pr := NewProcRunner()
	defer pr.Close()
	res, err := Run(job, []string{"a", "b"}, Config{Workers: 1, Runner: pr})
	if err == nil || !strings.Contains(err.Error(), "exploded deterministically") {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if errors.Is(err, ErrRetriesExhausted) {
		t.Error("deterministic job error consumed the retry budget")
	}
}

// TestProcRunnerRejectsClosureJobs: a job without a registry spec has
// no wire form; dispatching it to a subprocess must fail loudly, not
// silently run something else.
func TestProcRunnerRejectsClosureJobs(t *testing.T) {
	pr := NewProcRunner()
	defer pr.Close()
	_, err := Run(wordCount(), []string{"a"}, Config{Workers: 1, Runner: pr})
	if err == nil || !strings.Contains(err.Error(), "cannot cross a process boundary") {
		t.Fatalf("err=%v", err)
	}
}

// TestProcRunnerTornReplyRetriesFresh arms the torn-worker latch: the
// first spawned worker answers its first task with a frame cut off
// mid-payload and exits. The coordinator must detect the damage via
// the CRC framing, discard the partial result, and re-run the task on
// a fresh worker — never accept a partial TaskOut.
func TestProcRunnerTornReplyRetriesFresh(t *testing.T) {
	latch := filepath.Join(t.TempDir(), "torn-latch")
	t.Setenv(envTornLatch, latch)

	job := registeredWordCount(t)
	inputs := procInputs()
	t.Setenv(envTornLatch, "") // local reference run spawns nothing, but keep it clean
	local, err := Run(job, inputs, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	t.Setenv(envTornLatch, latch)
	pr := NewProcRunner()
	defer pr.Close()
	proc, err := Run(job, inputs, Config{Workers: 2, Runner: pr})
	if err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(latch); statErr != nil {
		t.Fatalf("latch never created — the torn worker did not run: %v", statErr)
	}
	if !reflect.DeepEqual(proc.Output, local.Output) {
		t.Error("output changed after a torn worker reply")
	}
	if proc.Counters.Get("task.retries") == 0 {
		t.Error("torn reply did not register a retry")
	}
	if pr.Spawned() < 2 {
		t.Errorf("spawned %d workers; the retry must use a fresh one", pr.Spawned())
	}
}

// TestFlakyRunnerEveryTaskIndex kills the simulated worker at every
// dispatch index in turn: whichever task dies, the retried run's
// output must stay bit-identical, and each single fault must cost
// exactly one retry.
func TestFlakyRunnerEveryTaskIndex(t *testing.T) {
	job := wordCount()
	inputs := procInputs()
	cfg := func(r Runner) Config { return Config{Workers: 4, Partitions: 3, Runner: r} }

	// A clean counting pass sizes the sweep: with no faults, attempts ==
	// dispatched tasks.
	counting := &FlakyRunner{}
	base, err := Run(job, inputs, cfg(counting))
	if err != nil {
		t.Fatal(err)
	}
	attempts := counting.Attempts()
	if attempts == 0 {
		t.Fatal("no tasks dispatched")
	}

	for k := int64(0); k < attempts; k++ {
		for _, runFirst := range []bool{false, true} {
			fr := &FlakyRunner{
				FailTask: func(seq int64, _ *Task) bool { return seq == k },
				RunFirst: runFirst,
			}
			res, err := Run(job, inputs, cfg(fr))
			if err != nil {
				t.Fatalf("kill at index %d (runFirst=%v): %v", k, runFirst, err)
			}
			if !reflect.DeepEqual(res.Output, base.Output) {
				t.Fatalf("kill at index %d (runFirst=%v): output diverged", k, runFirst)
			}
			if got := res.Counters.Get("task.retries"); got != 1 {
				t.Fatalf("kill at index %d: task.retries=%d, want 1", k, got)
			}
		}
	}
}

// TestFlakyRunnerExhaustsBudget: a task whose worker dies on every
// attempt must surface the typed exhaustion error — never hang, never
// mislabel it a job failure.
func TestFlakyRunnerExhaustsBudget(t *testing.T) {
	fr := &FlakyRunner{FailTask: func(int64, *Task) bool { return true }}
	done := make(chan error, 1)
	go func() {
		_, err := Run(wordCount(), []string{"a b", "c"}, Config{Workers: 2, MaxAttempts: 4, Runner: fr})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrRetriesExhausted) {
			t.Fatalf("err=%v, want ErrRetriesExhausted", err)
		}
		if !strings.Contains(err.Error(), "4 attempts") {
			t.Errorf("err=%v does not name the budget", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("exhausted retry budget hung instead of failing")
	}
}

// TestRunContextCancelled: a cancelled context must stop the run and
// surface ctx.Err(), on both runners.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := registeredWordCount(t)
	if _, err := RunContext(ctx, job, procInputs(), Config{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("local: err=%v, want context.Canceled", err)
	}
	pr := NewProcRunner()
	defer pr.Close()
	if _, err := RunContext(ctx, job, procInputs(), Config{Workers: 2, Runner: pr}); !errors.Is(err, context.Canceled) {
		t.Errorf("proc: err=%v, want context.Canceled", err)
	}
}

// TestFrameTornAtEveryOffset truncates a valid frame at every byte
// offset: the reader must answer clean io.EOF only at a frame
// boundary, io.ErrUnexpectedEOF everywhere else, and never hand back a
// payload.
func TestFrameTornAtEveryOffset(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte(`{"kvs":[{"k":"alpha","v":"1"},{"k":"beta","v":"2"}]}`)
	if err := writeFrame(&buf, frameResult, payload); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for cut := 0; cut < len(frame); cut++ {
		typ, got, err := readFrame(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("cut=%d: accepted a torn frame (type %d, %d bytes)", cut, typ, len(got))
		}
		if cut == 0 {
			if !errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut=0: err=%v, want clean io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: err=%v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// The intact frame still reads back, so the sweep tested the codec,
	// not a broken fixture.
	typ, got, err := readFrame(bytes.NewReader(frame))
	if err != nil || typ != frameResult || !bytes.Equal(got, payload) {
		t.Fatalf("intact frame: typ=%d err=%v", typ, err)
	}
}

// TestFrameCorruptAtEveryByte flips every byte of a valid frame in
// turn: the CRC (which covers the type byte) must reject each mutation
// — corruption is detected, never decoded.
func TestFrameCorruptAtEveryByte(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte(`{"kvs":[{"k":"alpha","v":"1"}]}`)
	if err := writeFrame(&buf, frameResult, payload); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for i := 0; i < len(good); i++ {
		for _, flip := range []byte{0x01, 0x80} {
			bad := bytes.Clone(good)
			bad[i] ^= flip
			// A small cap catches a corrupted length field by
			// arithmetic, not by attempting a giant allocation.
			typ, got, err := frame.Read(bytes.NewReader(bad), 1<<16)
			if err == nil {
				t.Fatalf("byte %d ^ %#x: accepted a corrupt frame (type %d, %d bytes)", i, flip, typ, len(got))
			}
			// A corrupted length may read short (unexpected EOF) or long
			// (implausible / checksum); all must reject, none may decode.
			if !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("byte %d ^ %#x: unexpected error class %v", i, flip, err)
			}
		}
	}
}

// TestWorkerProtocolRoundTrip drives WorkerMain directly over in-memory
// pipes — the protocol without a subprocess — and checks a task round
// trip plus clean shutdown on EOF.
func TestWorkerProtocolRoundTrip(t *testing.T) {
	job := registeredWordCount(t)
	task := &Task{Job: job, Kind: MapTask, ID: 0, Partitions: 2, Inputs: []string{"a b a"}}
	payload, err := encodeTask(task)
	if err != nil {
		t.Fatal(err)
	}
	var in, out bytes.Buffer
	if err := writeFrame(&in, frameTask, payload); err != nil {
		t.Fatal(err)
	}
	if err := WorkerMain(&in, &out); err != nil {
		t.Fatal(err)
	}
	typ, reply, err := readFrame(&out)
	if err != nil || typ != frameResult {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	if len(reply) == 0 {
		t.Fatal("empty result payload")
	}
	// The worker's reply must equal running the task locally.
	want, err := execTask(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	var got TaskOut
	if err := json.Unmarshal(reply, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Parts, want.Parts) {
		t.Errorf("worker parts %v, local %v", got.Parts, want.Parts)
	}
}
