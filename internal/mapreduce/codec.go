package mapreduce

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/frame"
)

// The worker protocol puts one internal/frame frame per message on the
// pipe — the repo's one record format — with the message kind as the
// frame type. A torn or corrupted frame surfaces as io.ErrUnexpectedEOF
// / ErrFrameCorrupt; the coordinator treats either as a dead worker and
// re-dispatches the task to a fresh one — a partial TaskOut can never
// be accepted because a partial frame never decodes.

const (
	// frameTask carries a coordinator→worker wireTask.
	frameTask byte = 1
	// frameResult carries a worker→coordinator wireResult.
	frameResult byte = 2
	// frameError carries a worker→coordinator job error (the task ran
	// and the job's own code failed — deterministic, not retryable).
	frameError byte = 3
)

// maxFramePayload rejects absurd length fields before allocating.
const maxFramePayload = 1 << 30

// ErrFrameCorrupt reports a frame whose checksum failed or whose
// length field is implausible — the stream is damaged and the worker
// that produced it cannot be trusted further.
var ErrFrameCorrupt = frame.ErrCorrupt

// writeFrame writes one frame to w.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("mapreduce: frame payload %d exceeds cap", len(payload))
	}
	_, err := w.Write(frame.Append(nil, typ, payload))
	return err
}

// readFrame reads one frame. io.EOF means a clean end between frames;
// a short header or truncated payload is io.ErrUnexpectedEOF; a bad
// length or checksum is ErrFrameCorrupt.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return frame.Read(r, maxFramePayload)
}

// wireTask is a Task's wire form: the job travels as its registry
// spec, never as code.
type wireTask struct {
	Job        JobSpec             `json:"job"`
	Kind       string              `json:"kind"`
	ID         int                 `json:"id"`
	Partitions int                 `json:"partitions,omitempty"`
	Inputs     []string            `json:"inputs,omitempty"`
	Keys       []string            `json:"keys,omitempty"`
	Groups     map[string][]string `json:"groups,omitempty"`
}

// wireError carries a worker-side job error back as text.
type wireError struct {
	Msg string `json:"msg"`
}

func encodeTask(t *Task) ([]byte, error) {
	if t.Job.Spec.Name == "" {
		return nil, fmt.Errorf("mapreduce: job %q has no registry spec; closure jobs cannot cross a process boundary", t.Job.Name)
	}
	return json.Marshal(wireTask{
		Job:        t.Job.Spec,
		Kind:       t.Kind.String(),
		ID:         t.ID,
		Partitions: t.Partitions,
		Inputs:     t.Inputs,
		Keys:       t.Keys,
		Groups:     t.Groups,
	})
}

func decodeTask(payload []byte) (*Task, error) {
	var wt wireTask
	if err := json.Unmarshal(payload, &wt); err != nil {
		return nil, fmt.Errorf("mapreduce: decode task: %w", err)
	}
	job, err := NewJob(wt.Job.Name, wt.Job.Params)
	if err != nil {
		return nil, err
	}
	t := &Task{
		Job:        job,
		ID:         wt.ID,
		Partitions: wt.Partitions,
		Inputs:     wt.Inputs,
		Keys:       wt.Keys,
		Groups:     wt.Groups,
	}
	switch wt.Kind {
	case "map":
		t.Kind = MapTask
	case "reduce":
		t.Kind = ReduceTask
	default:
		return nil, fmt.Errorf("mapreduce: decode task: unknown kind %q", wt.Kind)
	}
	return t, nil
}
