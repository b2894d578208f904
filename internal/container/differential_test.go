package container_test

// Row shape ≡ view shape. The data plane has one internal form (flat
// views) and one adapter that brings a row-slice Predictor to it. The
// claim that the adapter changes nothing is checked the way two
// transition systems are shown equal: drive both with the same inputs and
// require that no observer can tell them apart. The observers here are
// the wire (every byte in both directions, through a tap on the
// connection) and the submitter (every Result, including its error text).
//
// Each scenario runs the same seeded traffic against a rows-only
// Predictor and against the equivalent ViewPredictor, deployed two ways:
// behind Loopback's codec and wire, and in process behind the queue's
// Local call.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"clipper/internal/batching"
	"clipper/internal/container"
	"clipper/internal/rpc"
)

// behaviour is what a model does, independent of the shape it is
// written in.
type behaviour struct {
	info   container.Info
	scored bool  // emit scores (of a width that varies with the row) or labels only
	fail   error // PredictBatch/PredictView return this
	short  bool  // answer with one prediction too few
	panics bool

	gate    chan struct{} // when non-nil, an arriving batch signals entered…
	entered chan struct{} // …and then waits at the gate (bothShapes makes both, per shape)
}

func (b *behaviour) answer(x []float64) (label int, scores []float64) {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	label = int(sum) % 5 // negative for negative sums
	if b.scored {
		scores = make([]float64, len(x)%3) // ragged, sometimes empty
		for j := range scores {
			scores[j] = sum + float64(j)
		}
	}
	return label, scores
}

// arrive is the part of a call both shapes share before predicting.
func (b *behaviour) arrive() error {
	if b.gate != nil {
		b.entered <- struct{}{}
		<-b.gate
	}
	if b.panics {
		panic("kaboom")
	}
	return b.fail
}

// rowsModel is the behaviour written as a plain Predictor.
type rowsModel struct{ *behaviour }

func (m rowsModel) Info() container.Info { return m.info }

func (m rowsModel) PredictBatch(xs [][]float64) ([]container.Prediction, error) {
	if err := m.arrive(); err != nil {
		return nil, err
	}
	n := len(xs)
	if m.short && n > 0 {
		n--
	}
	out := make([]container.Prediction, n)
	for i := range out {
		out[i].Label, out[i].Scores = m.answer(xs[i])
	}
	return out, nil
}

// viewModel is the same behaviour written as a ViewPredictor. Its
// PredictBatch exists only to satisfy the interface: reaching it means
// the view shape was not served natively.
type viewModel struct{ *behaviour }

func (m viewModel) Info() container.Info { return m.info }

func (m viewModel) PredictBatch([][]float64) ([]container.Prediction, error) {
	return nil, errors.New("view model served through its row method")
}

func (m viewModel) PredictView(v container.BatchView, out *container.PredictionView) error {
	if err := m.arrive(); err != nil {
		return err
	}
	n := v.Rows()
	if m.short && n > 0 {
		n--
	}
	out.Reset()
	for i := 0; i < n; i++ {
		out.Append(m.answer(v.Row(i)))
	}
	return nil
}

// tap records every byte crossing the server's end of the connection.
type tap struct {
	net.Conn
	mu        sync.Mutex
	requests  bytes.Buffer // read by the server
	responses bytes.Buffer // written by the server
}

func (t *tap) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.mu.Lock()
	t.requests.Write(p[:n])
	t.mu.Unlock()
	return n, err
}

func (t *tap) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.responses.Write(p)
	t.mu.Unlock()
	return t.Conn.Write(p)
}

func (t *tap) wire() (requests, responses []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]byte(nil), t.requests.Bytes()...), append([]byte(nil), t.responses.Bytes()...)
}

// flatCall is the call the queue makes on a replica.
type flatCall interface {
	PredictViewContext(context.Context, *container.BatchView, func(int, container.Prediction)) error
}

// deployment is one predictor behind one queue.
type deployment struct {
	b    *behaviour
	q    *batching.Queue
	call flatCall // what q calls: the Remote behind Loopback, a Local in process
	tap  *tap     // nil in process
}

// deploy puts p behind a serial queue that dispatches batches of exactly
// batch rows, so batch composition — and with it every frame — is decided
// by submit order alone.
func deploy(t *testing.T, b *behaviour, p container.Predictor, loopback bool, batch int) *deployment {
	t.Helper()
	d := &deployment{b: b, call: container.NewLocal(p)}
	target := p
	if loopback {
		// container.Loopback, with the server's end of the pipe tapped.
		srv := rpc.NewServer(container.Handler(p))
		remote, err := container.NewRemotePool(func() (io.ReadWriteCloser, error) {
			cli, srvEnd := net.Pipe()
			d.tap = &tap{Conn: srvEnd}
			go srv.ServeConn(d.tap)
			return cli, nil
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { remote.Close(); srv.Close() })
		d.call, target = remote, remote
	}
	d.q = batching.NewQueue(target, batching.QueueConfig{
		Controller:   batching.NewFixed(batch),
		BatchTimeout: 5 * time.Second,
		InFlight:     1,
	})
	t.Cleanup(d.q.Close)
	return d
}

// outcome is a Result made comparable: errors by text and identity class.
type outcome struct {
	Pred container.Prediction
	Err  string
}

func outcomeOf(r batching.Result) outcome {
	o := outcome{Pred: r.Pred}
	if r.Err != nil {
		o.Err = fmt.Sprintf("%T: %v", r.Err, r.Err)
	}
	return o
}

// startResult Starts x on q's default tenant and returns the channel its one
// Result arrives on.
func startResult(q *batching.Queue, x []float64) (<-chan batching.Result, error) {
	ch := make(chan batching.Result, 1)
	return ch, q.Start(context.Background(), "", new(batching.Request), x, func(r batching.Result) { ch <- r })
}

// submitAll submits rows in order and returns their outcomes in order.
func submitAll(t *testing.T, q *batching.Queue, rows [][]float64) []outcome {
	t.Helper()
	chans := make([]<-chan batching.Result, len(rows))
	for i, x := range rows {
		ch, err := startResult(q, x)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	out := make([]outcome, len(rows))
	for i, ch := range chans {
		select {
		case r := <-ch:
			out[i] = outcomeOf(r)
		case <-time.After(10 * time.Second):
			t.Fatalf("row %d never received its Result", i)
		}
	}
	return out
}

// traffic generates batches×batch seeded rows; dims picks each row's
// width.
func traffic(seed int64, batches, batch int, dim func(rng *rand.Rand) int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, batches*batch)
	for i := range rows {
		x := make([]float64, dim(rng))
		for j := range x {
			x[j] = rng.NormFloat64() * 10
		}
		rows[i] = x
	}
	return rows
}

func uniform(d int) func(*rand.Rand) int { return func(*rand.Rand) int { return d } }
func ragged(rng *rand.Rand) int          { return rng.Intn(5) } // includes empty rows

// bothShapes runs drive against the row shape and the view shape of b and
// requires identical observations: what drive returns, and — behind
// Loopback — every byte on the wire.
func bothShapes(t *testing.T, b behaviour, loopback bool, batch int, drive func(t *testing.T, d *deployment) any) {
	t.Helper()
	type observed struct {
		result              any
		requests, responses []byte
	}
	var seen []observed
	for _, view := range []bool{false, true} {
		b := b // each shape gets its own copy, and its own gate
		if b.gate != nil {
			b.entered, b.gate = make(chan struct{}, 8), make(chan struct{}, 8)
		}
		var p container.Predictor = rowsModel{&b}
		if view {
			p = viewModel{&b}
		}
		d := deploy(t, &b, p, loopback, batch)
		o := observed{result: drive(t, d)}
		d.q.Close()
		if d.tap != nil {
			o.requests, o.responses = d.tap.wire()
			if len(o.responses) == 0 {
				t.Error("the tap saw no traffic")
			}
		}
		seen = append(seen, o)
	}
	rows, view := seen[0], seen[1]
	if !reflect.DeepEqual(rows.result, view.result) {
		t.Errorf("outcomes differ:\n rows %+v\n view %+v", rows.result, view.result)
	}
	if !bytes.Equal(rows.requests, view.requests) {
		t.Errorf("request bytes differ:\n rows %v\n view %v", rows.requests, view.requests)
	}
	if !bytes.Equal(rows.responses, view.responses) {
		t.Errorf("response bytes differ:\n rows %v\n view %v", rows.responses, view.responses)
	}
}

func TestRowShapeEqualsViewShape(t *testing.T) {
	const batch = 4
	submit := func(rows [][]float64) func(*testing.T, *deployment) any {
		return func(t *testing.T, d *deployment) any { return submitAll(t, d.q, rows) }
	}
	// expect wraps a drive with a check on the rows-shape outcome, so the
	// comparison is between two right answers, not two equal wrong ones.
	expect := func(drive func(*testing.T, *deployment) any, check func(t *testing.T, out []outcome)) func(*testing.T, *deployment) any {
		return func(t *testing.T, d *deployment) any {
			got := drive(t, d)
			check(t, got.([]outcome))
			return got
		}
	}
	allFail := func(want string) func(*testing.T, []outcome) {
		return func(t *testing.T, out []outcome) {
			for i, o := range out {
				if o.Err != want {
					t.Errorf("row %d: err %q, want %q", i, o.Err, want)
				}
			}
		}
	}
	allOK := func(t *testing.T, out []outcome) {
		for i, o := range out {
			if o.Err != "" {
				t.Errorf("row %d: %s", i, o.Err)
			}
		}
	}
	info := container.Info{Name: "m", Version: 1, NumClasses: 5}
	wantDim := info
	wantDim.InputDim = 3

	scenarios := []struct {
		name         string
		b            behaviour
		drive        func(*testing.T, *deployment) any
		loopbackOnly bool
		inProcOnly   bool
	}{
		{name: "uniform rows, scored",
			b:     behaviour{info: info, scored: true},
			drive: expect(submit(traffic(1, 3, batch, uniform(7))), allOK)},
		{name: "ragged rows, scored",
			b:     behaviour{info: info, scored: true},
			drive: expect(submit(traffic(2, 3, batch, ragged)), allOK)},
		{name: "label-only outputs",
			b:     behaviour{info: info},
			drive: expect(submit(traffic(3, 2, batch, uniform(3))), allOK)},
		{name: "input dim honoured",
			b:     behaviour{info: wantDim, scored: true},
			drive: expect(submit(traffic(4, 2, batch, uniform(3))), allOK)},
		{name: "dim mismatch names the query", loopbackOnly: true, // the Handler checks dims; in process nobody does
			b: behaviour{info: wantDim},
			drive: expect(submit([][]float64{{1, 2, 3}, {4, 5}, {6, 7, 8}, {9}}),
				allFail("*rpc.RemoteError: rpc: remote error: container: query 1 has dim 2, model m wants 3"))},
		{name: "wrong prediction count", loopbackOnly: true,
			b: behaviour{info: info, short: true},
			drive: expect(submit(traffic(5, 1, batch, uniform(2))),
				allFail("*rpc.RemoteError: rpc: remote error: container: got 3 predictions for 4 inputs"))},
		{name: "wrong prediction count", inProcOnly: true,
			b: behaviour{info: info, short: true},
			drive: expect(submit(traffic(5, 1, batch, uniform(2))),
				allFail("*errors.errorString: container: got 3 predictions for 4 inputs"))},
		{name: "predictor error", loopbackOnly: true,
			b: behaviour{info: info, fail: errors.New("model exploded")},
			drive: expect(submit(traffic(6, 2, batch, uniform(2))),
				allFail("*rpc.RemoteError: rpc: remote error: model exploded"))},
		{name: "predictor error", inProcOnly: true,
			b: behaviour{info: info, fail: errors.New("model exploded")},
			drive: expect(submit(traffic(6, 2, batch, uniform(2))),
				allFail("*errors.errorString: model exploded"))},
		// A panic behind Loopback is a crash of the container process, by
		// design; the queue's isolation is for predictors it calls itself.
		{name: "predictor panic", inProcOnly: true,
			b: behaviour{info: info, panics: true},
			drive: expect(submit(traffic(7, 2, batch, uniform(2))),
				allFail("*errors.errorString: batching: container panicked: kaboom"))},
	}
	for _, loopback := range []bool{true, false} {
		mode := "in process"
		if loopback {
			mode = "loopback"
		}
		for _, sc := range scenarios {
			if (loopback && sc.inProcOnly) || (!loopback && sc.loopbackOnly) {
				continue
			}
			t.Run(mode+"/"+sc.name, func(t *testing.T) {
				bothShapes(t, sc.b, loopback, batch, sc.drive)
			})
		}

		// The queue never dispatches an empty batch; the call below it
		// must still agree on one.
		t.Run(mode+"/empty batch", func(t *testing.T) {
			bothShapes(t, behaviour{info: info, scored: true}, loopback, batch, func(t *testing.T, d *deployment) any {
				delivered := 0
				err := d.call.PredictViewContext(context.Background(), new(container.BatchView),
					func(int, container.Prediction) { delivered++ })
				if err != nil || delivered != 0 {
					t.Errorf("empty batch: err %v, %d deliveries", err, delivered)
				}
				return fmt.Sprint(err, delivered)
			})
		})

		// A submitter that gives up gets its context's error; the batch it
		// was in still completes for everyone else.
		t.Run(mode+"/ctx cancel", func(t *testing.T) {
			b := behaviour{info: info, scored: true, gate: make(chan struct{})}
			bothShapes(t, b, loopback, 2, func(t *testing.T, d *deployment) any {
				b := d.b
				patient, err := startResult(d.q, []float64{1, 2})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				gaveUp := make(chan error, 1)
				go func() {
					_, err := d.q.Submit(ctx, []float64{3, 4})
					gaveUp <- err
				}()
				<-b.entered // both rows are inside the predictor
				cancel()
				cancelled := <-gaveUp
				b.gate <- struct{}{}
				kept := outcomeOf(<-patient)
				if !errors.Is(cancelled, context.Canceled) || kept.Err != "" {
					t.Errorf("cancelled submitter: %v; patient submitter: %+v", cancelled, kept)
				}
				return []any{fmt.Sprint(cancelled), kept}
			})
		})

		// Close while a batch is inside the predictor: that batch still
		// delivers, and the request queued behind it gets exactly one
		// Result — its prediction or the queue-closed error, whichever side of the
		// close it fell on.
		t.Run(mode+"/Close mid-flight", func(t *testing.T) {
			b := behaviour{info: info, gate: make(chan struct{})}
			bothShapes(t, b, loopback, 1, func(t *testing.T, d *deployment) any {
				b := d.b
				inFlight, err := startResult(d.q, []float64{5})
				if err != nil {
					t.Fatal(err)
				}
				<-b.entered
				queued, err := startResult(d.q, []float64{6})
				if err != nil {
					t.Fatal(err)
				}
				closed := make(chan struct{})
				go func() { d.q.Close(); close(closed) }()
				b.gate <- struct{}{}
				b.gate <- struct{}{} // in case the queued request was dispatched too
				first := outcomeOf(<-inFlight)
				second := outcomeOf(<-queued)
				<-closed
				if first.Err != "" {
					t.Errorf("in-flight request: %s", first.Err)
				}
				if second.Err != "" && second.Err != "*errors.errorString: batching: queue closed" {
					t.Errorf("queued request: %s", second.Err)
				}
				select {
				case extra := <-queued:
					t.Errorf("queued request got a second Result: %+v", extra)
				default:
				}
				// Which side of the close the second request fell on is a
				// race in either shape, so it is not part of the comparison
				// — and neither, then, is the wire.
				d.tap = nil
				return first
			})
		})
	}
}
