package driver

import (
	"ironhide/internal/arch"
	"ironhide/internal/enclave"
	"ironhide/internal/trace"
	"ironhide/internal/workload"
)

// The test oracles the replay path is gated against. Production runs
// always replay a capture through the batch kernel; these two run the
// same pipeline over the other implementations of the application's
// operation stream.

// RunLive executes the payload live for every probe and the measured run:
// the oracle every replayed Result must equal byte for byte.
func RunLive(cfg arch.Config, model enclave.Model, factory AppFactory, opts Options) (*Result, error) {
	fresh := func() *workload.App { return factory().Scaled(opts.scale()) }
	return runModel(cfg, model, fresh, opts)
}

// RunTraceReference is RunTrace through the per-op reference replayer
// instead of the pre-lowered batch kernel: batch replay must be
// byte-identical to the reference interpreter, which in turn must match
// RunLive.
func RunTraceReference(cfg arch.Config, model enclave.Model, tr *trace.Trace, opts Options) (*Result, error) {
	if err := checkScale(tr, opts.scale(), "replay"); err != nil {
		return nil, err
	}
	return runModel(cfg, model, tr.NewReferenceApp, opts)
}
