package stream

import (
	"bytes"
	"fmt"

	"promises/internal/wire"
)

// Promise pipelining (DESIGN.md §13). A pipelined call carries a
// continuation chain: after the receiving guardian executes the call, the
// result does not come home — it is spliced into the arguments of the
// chain's next stage and forwarded guardian-to-guardian, so stage N+1
// starts at the guardian that produced stage N's output with no hop back
// to the caller. The chain's last guardian sends the final outcome to the
// origin guardian as an ordinary send on its ~pipe stream, to a reserved
// port; the origin retains it as the pipelined call's reply, which rides
// its stream's reply batches home.
//
// The promise reference that travels with the chain is the origin
// stream's key plus its incarnation and the call's seq: exactly enough
// for the last guardian to address the resolution, and for the origin to
// drop a stale chain after a reincarnation.

// PipeStage names one continuation stage of a pipelined call: the
// guardian (node, port group) that runs it, the port to invoke, and extra
// pre-encoded arguments appended after the previous stage's results.
type PipeStage struct {
	Node  string
	Group string
	Port  string
	Extra []byte // wire-encoded argument list; nil for none
}

// pipeRef is the promise reference a continuation chain resolves: the
// origin stream plus incarnation and seq.
type pipeRef struct {
	streamKey
	incarnation, seq uint64
}

// pipeContVersion versions the continuation blob; a blob of any other
// version is malformed, and the call carrying it fails.
const pipeContVersion = 1

const (
	// pipeAgentName is the agent chain traffic travels on. Each guardian
	// sends continuation hops and chain resolutions from this agent, one
	// stream per downstream guardian, so chain traffic batches and
	// sequences independently of any application agent.
	pipeAgentName = "~pipe"
	// pipeResolvePort is the reserved port a chain's resolution is sent to
	// on a ~pipe stream. The receiver handles it before dispatch, so it
	// never reaches a handler.
	pipeResolvePort = "~resolve"
)

// encodePipeCont writes the continuation blob riding a pipelined request:
//
//	[version, senderNode, agent, recvNode, group, incarnation, seq,
//	 stages(list of 4 values each: node, group, port, extra)]
//
// Meaning: after executing the call this blob rides with, splice the
// result into stages[0]'s arguments and forward; with no stages left,
// the result IS the chain's resolution — deliver it to the reference.
// The blob's bytes are taken from a, like every blob a hop cuts.
func encodePipeCont(ref pipeRef, stages []PipeStage, a *arena) []byte {
	// Sized exactly first, so the blob is one carve: a one-byte header
	// (8 values), the reference, the stage list.
	size := 1 + wire.SizeInt(pipeContVersion) +
		wire.SizeBlob(len(ref.senderNode)) + wire.SizeBlob(len(ref.agent)) +
		wire.SizeBlob(len(ref.recvNode)) + wire.SizeBlob(len(ref.group)) +
		wire.SizeInt(int64(ref.incarnation)) + wire.SizeInt(int64(ref.seq)) +
		wire.SizeCount(4*len(stages))
	for _, st := range stages {
		size += wire.SizeBlob(len(st.Node)) + wire.SizeBlob(len(st.Group)) +
			wire.SizeBlob(len(st.Port)) + wire.SizeBlob(len(st.Extra))
	}
	buf := appendPipeRef(a.take(size), ref)
	buf = wire.AppendList(buf, 4*len(stages))
	for _, st := range stages {
		buf = wire.AppendString(buf, st.Node)
		buf = wire.AppendString(buf, st.Group)
		buf = wire.AppendString(buf, st.Port)
		buf = wire.AppendBytes(buf, st.Extra)
	}
	return buf
}

// appendPipeRef appends a continuation blob up to its stage list: the
// header, the version and the promise reference.
func appendPipeRef(buf []byte, ref pipeRef) []byte {
	buf = wire.AppendHeader(buf, 8)
	buf = wire.AppendInt(buf, pipeContVersion)
	buf = wire.AppendString(buf, ref.senderNode)
	buf = wire.AppendString(buf, ref.agent)
	buf = wire.AppendString(buf, ref.recvNode)
	buf = wire.AppendString(buf, ref.group)
	buf = wire.AppendInt(buf, int64(ref.incarnation))
	return wire.AppendInt(buf, int64(ref.seq))
}

// pipeCont is a continuation blob as one hop sees it: checked whole, but
// parsed only as far as the next stage. The promise reference and the
// later stages stay encoded — advance cuts stage 0 out of the blob rather
// than re-encoding the rest, and ref decodes the reference only where the
// chain resolves.
type pipeCont struct {
	blob []byte
	list int       // offset of the stage list's header
	rest int       // offset of stage 1, where stage 0 ends (when n > 0)
	n    int       // stages in the list
	next PipeStage // stage 0 when n > 0; Extra aliases blob
}

// parsePipeCont checks a continuation blob and parses its first stage.
// An unknown version or a blob that is not exactly what encodePipeCont
// writes is an error — the receiver then fails the call with
// failure("malformed continuation").
func parsePipeCont(blob []byte) (pipeCont, error) {
	c := pipeCont{blob: blob}
	d := wire.NewDecoder(blob)
	if err := readPipeRef(&d, nil); err != nil {
		return c, err
	}
	c.list = len(blob) - d.Remaining()
	nvals, err := d.List()
	if err != nil {
		return c, err
	}
	if nvals%4 != 0 {
		return c, fmt.Errorf("stream: continuation stage list has %d values", nvals)
	}
	c.n = nvals / 4
	var views [3][]byte
	for i := 0; i < c.n; i++ {
		for j := range views {
			if views[j], err = d.StringView(); err != nil {
				return c, err
			}
		}
		extra, err := d.BytesView()
		if err != nil {
			return c, err
		}
		if i == 0 {
			c.next = PipeStage{Node: internString(views[0]), Group: internString(views[1]),
				Port: internString(views[2])}
			if len(extra) > 0 {
				c.next.Extra = extra
			}
			c.rest = len(blob) - d.Remaining()
		}
	}
	return c, d.Done()
}

// readPipeRef reads a continuation blob's header, version and promise
// reference, leaving d at the stage list. With ref nil the reference is
// only checked: a hop that forwards the chain never needs its strings.
func readPipeRef(d *wire.Decoder, ref *pipeRef) error {
	nvals, err := d.Header()
	if err != nil {
		return err
	}
	if nvals != 8 {
		return fmt.Errorf("stream: continuation has %d values, want 8", nvals)
	}
	ver, err := d.Int()
	if err != nil {
		return err
	}
	if ver != pipeContVersion {
		return fmt.Errorf("stream: unknown continuation version %d", ver)
	}
	var names [4]*string
	if ref != nil {
		names = [4]*string{&ref.senderNode, &ref.agent, &ref.recvNode, &ref.group}
	}
	for _, name := range names {
		v, err := d.StringView()
		if err != nil {
			return err
		}
		if name != nil {
			*name = internString(v)
		}
	}
	inc, err := d.Int()
	if err != nil {
		return err
	}
	seq, err := d.Int()
	if ref != nil {
		ref.incarnation, ref.seq = uint64(inc), uint64(seq)
	}
	return err
}

// ref decodes the promise reference of a blob parsePipeCont accepted.
func (c *pipeCont) ref() pipeRef {
	var ref pipeRef
	d := wire.NewDecoder(c.blob)
	_ = readPipeRef(&d, &ref) // checked by parsePipeCont
	return ref
}

// names reports whether the promise reference of a blob parsePipeCont
// accepted is ref. It compares encodings, so nothing is decoded, interned
// or (for names of common length) allocated.
func (c *pipeCont) names(ref pipeRef) bool {
	var buf [128]byte
	return bytes.Equal(c.blob[:c.list], appendPipeRef(buf[:0], ref))
}

// advance returns the blob the next stage's call carries: this one with
// stage 0 cut out, in bytes taken from a.
func (c *pipeCont) advance(a *arena) []byte { return c.cut(c.rest, c.n-1, a) }

// resolution returns the blob a resolution carries: this one with every
// stage cut out, leaving the promise reference, in bytes taken from a.
func (c *pipeCont) resolution(a *arena) []byte {
	if c.n == 0 {
		return c.blob
	}
	return c.cut(len(c.blob), 0, a)
}

// cut builds the blob whose stage list is the n stages encoded at
// blob[from:]: the reference's bytes, a new list header, that tail.
func (c *pipeCont) cut(from, n int, a *arena) []byte {
	tail := c.blob[from:]
	buf := a.take(c.list + wire.SizeCount(4*n) + len(tail))
	buf = append(buf, c.blob[:c.list]...)
	buf = wire.AppendList(buf, 4*n)
	return append(buf, tail...)
}

// encodeOutcome writes a chain's outcome as a resolution send's
// arguments, [normal, exception, payload], in bytes taken from a.
func encodeOutcome(o Outcome, a *arena) []byte {
	buf := a.take(2 + wire.SizeBlob(len(o.Exception)) + wire.SizeBlob(len(o.Payload)))
	buf = wire.AppendHeader(buf, 3)
	buf = wire.AppendBool(buf, o.Normal)
	buf = wire.AppendString(buf, o.Exception)
	return wire.AppendBytes(buf, o.Payload)
}

// decodeOutcome reads encodeOutcome's arguments. The payload aliases args.
func decodeOutcome(args []byte) (Outcome, error) {
	d := wire.NewDecoder(args)
	n, err := d.Header()
	if err != nil {
		return Outcome{}, err
	}
	if n != 3 {
		return Outcome{}, fmt.Errorf("stream: resolution has %d values, want 3", n)
	}
	norm, err := d.Bool()
	if err != nil {
		return Outcome{}, err
	}
	exc, err := d.StringView()
	if err != nil {
		return Outcome{}, err
	}
	pl, err := d.BytesView()
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Normal: norm, Exception: internString(exc), Payload: pl}, d.Done()
}
