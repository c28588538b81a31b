package stateslice

import "stateslice/internal/stream"

// Source produces input tuples incrementally, in global timestamp order.
// Plans consume sources one tuple at a time, so inputs may be unbounded —
// a live channel, an incremental generator — without the whole workload
// ever being materialized. Next returns io.EOF when the source is
// exhausted.
type Source = stream.Source

// SliceSource adapts a pre-materialized batch to the Source interface.
func SliceSource(tuples []*Tuple) Source { return stream.NewSliceSource(tuples) }

// ChannelSource adapts a tuple channel to the Source interface; the source
// ends when the channel is closed. Nil tuples are skipped, so producers may
// send them as keep-alives.
func ChannelSource(ch <-chan *Tuple) Source { return stream.NewChanSource(ch) }

// GeneratorSource streams the synthetic Poisson workload one tuple at a
// time. It yields exactly the sequence Generate materializes for the same
// configuration, so streaming and batch runs are comparable tuple for
// tuple.
func GeneratorSource(cfg GeneratorConfig) (Source, error) { return stream.NewGeneratorSource(cfg) }

// CollectSource drains a source into a batch — handy for feeding several
// plans the same input or for bridging to the deprecated batch APIs.
func CollectSource(src Source) ([]*Tuple, error) { return stream.Collect(src) }

// RetrySource wraps a Source so transient pull failures — a flaky network
// producer, a timed-out fetch, even a panicking Next — retry with
// exponential backoff and bounded jitter instead of aborting the consuming
// session. io.EOF and Terminal-wrapped errors end the stream immediately;
// with RetryPolicy.Timeout set, each attempt is bounded and a late success
// is still delivered, never dropped. See NewRetrySource.
type RetrySource = stream.RetrySource

// RetryPolicy tunes a RetrySource: attempt budget, backoff shape, jitter,
// per-attempt timeout, and the transient-vs-terminal classifier. The zero
// value is usable.
type RetryPolicy = stream.RetryPolicy

// ErrPullTimeout is the transient error a timed-out pull attempt records; it
// surfaces (wrapped) only when the attempt budget is exhausted before any
// attempt completes.
var ErrPullTimeout = stream.ErrPullTimeout

// NewRetrySource wraps src with the given retry policy.
func NewRetrySource(src Source, pol RetryPolicy) *RetrySource {
	return stream.NewRetrySource(src, pol)
}

// Terminal wraps err so a RetrySource gives up immediately instead of
// retrying: sources return Terminal(err) for permanent failures (auth
// rejection, malformed stream) that retrying cannot fix.
func Terminal(err error) error { return stream.Terminal(err) }

// IsTerminal reports whether err (or an error it wraps) was marked with
// Terminal.
func IsTerminal(err error) bool { return stream.IsTerminal(err) }

// Sink receives one query's result tuples as they are produced, in that
// query's delivery order. Register sinks at build time with WithSink. For
// sequential plans the callback runs on the goroutine driving the session.
// Under WithShards an unfiltered fixed chain runs every sink on its one
// assembly goroutine; any other sharded plan runs each query's sink on that
// query's merge goroutine, so sinks of different queries may fire
// concurrently.
type Sink interface {
	Emit(t *Tuple)
}

// SinkFunc adapts a plain function to the Sink interface.
type SinkFunc func(*Tuple)

// Emit implements Sink.
func (f SinkFunc) Emit(t *Tuple) { f(t) }
