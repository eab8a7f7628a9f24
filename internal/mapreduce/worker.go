package mapreduce

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/frame"
)

// WorkerMain serves the worker side of the task protocol: read a task
// frame, resolve its job from the registry, execute, reply with a
// result or error frame, repeat until the coordinator closes the pipe
// (clean EOF → nil). `minoaner worker` calls this with stdin/stdout;
// test binaries call it through InitTestWorker.
//
// A worker is stateless between tasks — every task frame is
// self-contained — which is what makes "retry on a fresh worker"
// sound: the replacement needs nothing from the process that died.
func WorkerMain(r io.Reader, w io.Writer) error {
	in := bufio.NewReader(r)
	out := bufio.NewWriter(w)
	for {
		typ, payload, err := readFrame(in)
		if errors.Is(err, io.EOF) {
			return nil // coordinator closed the pipe: done
		}
		if err != nil {
			return fmt.Errorf("mapreduce worker: read task: %w", err)
		}
		if typ != frameTask {
			return fmt.Errorf("mapreduce worker: unexpected frame type %d", typ)
		}
		reply, replyType := runWireTask(payload)
		if err := writeFrame(out, replyType, reply); err != nil {
			return fmt.Errorf("mapreduce worker: write reply: %w", err)
		}
		if err := out.Flush(); err != nil {
			return fmt.Errorf("mapreduce worker: write reply: %w", err)
		}
	}
}

// runWireTask decodes and executes one task, returning the reply
// payload and its frame type. Job and registry failures become error
// frames — the worker stays healthy; only transport problems kill it.
func runWireTask(payload []byte) ([]byte, byte) {
	t, err := decodeTask(payload)
	if err != nil {
		return errorFrame(err)
	}
	out, err := execTask(context.Background(), t)
	if err != nil {
		return errorFrame(err)
	}
	reply, err := json.Marshal(out)
	if err != nil {
		return errorFrame(fmt.Errorf("mapreduce worker: encode result: %w", err))
	}
	return reply, frameResult
}

func errorFrame(err error) ([]byte, byte) {
	reply, merr := json.Marshal(wireError{Msg: err.Error()})
	if merr != nil {
		reply = []byte(`{"msg":"mapreduce worker: unencodable error"}`)
	}
	return reply, frameError
}

// envTornLatch names a latch file for the fresh-worker retry test: the
// first worker to create it (O_EXCL) reads one task and replies with a
// deliberately torn frame, then exits; every later worker — the fresh
// one the coordinator retries on — behaves normally. Test-binary use
// only, via InitTestWorker.
const envTornLatch = "MINOANER_MR_TORN_LATCH"

// InitTestWorker makes a test binary usable as a worker executable.
// Call it first thing in TestMain:
//
//	func TestMain(m *testing.M) {
//		mapreduce.InitTestWorker()
//		os.Exit(m.Run())
//	}
//
// If the process was spawned as a protocol worker (EnvWorkerProtocol
// set), it serves the protocol and exits instead of running tests.
// Otherwise it points EnvWorkerCmd at this same binary, so any
// ProcRunner the tests construct spawns copies of the test binary —
// which loop right back here and become workers. Every test package
// that can reach a proc-runner pipeline needs this hook; without it, a
// spawned worker would recursively run the test suite.
func InitTestWorker() {
	if os.Getenv(EnvWorkerProtocol) == "" {
		exe, err := os.Executable()
		if err != nil {
			panic("mapreduce: InitTestWorker: " + err.Error())
		}
		os.Setenv(EnvWorkerCmd, exe)
		return
	}
	if latch := os.Getenv(envTornLatch); latch != "" {
		if f, err := os.OpenFile(latch, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err == nil {
			f.Close()
			serveTornWorker(os.Stdin, os.Stdout)
			os.Exit(0)
		}
	}
	if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// serveTornWorker reads one task, does the work, then writes a reply
// frame whose tail is cut off mid-payload and exits — the torn-result
// fault: the work happened, but the coordinator must detect the
// damage, discard the partial reply, and re-run on a fresh worker.
func serveTornWorker(r io.Reader, w io.Writer) {
	in := bufio.NewReader(r)
	typ, payload, err := readFrame(in)
	if err != nil || typ != frameTask {
		return
	}
	reply, replyType := runWireTask(payload)
	buf := frame.Append(nil, replyType, reply)
	cut := len(buf) - len(buf)/3 // drop the last third: header intact, payload torn
	if cut <= frame.HeaderSize {
		cut = frame.HeaderSize
	}
	w.Write(buf[:cut])
}
