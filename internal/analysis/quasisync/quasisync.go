// Package quasisync machine-checks the paper's central control-structure
// rule: asynchronous events are only allowed to *enqueue* tcp_actions;
// the to_do queue is drained synchronously by the thread that enqueued.
// "Message receptions and timer expirations only enqueue actions on the
// owning connection's to_do queue" — that is what makes behavior
// deterministic and each module testable in isolation.
//
// Concretely: code reachable from an asynchronous entry point — a timer
// callback handed to internal/timers' Start, or a wire-delivery handler
// handed to a lower layer's Attach — must not call into the synchronous
// Receive/Send/Resend modules (the functions declared in receive.go,
// send.go, resend.go, fastpath.go). The only sanctioned doors are the
// executor's enqueue/run/perform, which the traversal treats as a
// boundary and does not look inside.
//
// The observer hooks face the inverse rule: functions declared in
// observe.go journal and measure what crosses the executor's door, so
// they must observe only — never call the boundary, never enter the
// synchronous modules. A hook that enqueued would make an observed run
// diverge from the same run unobserved, which is exactly what
// cmd/foxreplay's replay-and-diff would then catch dynamically; this
// pass catches it structurally.
//
// The traversal runs on the module-wide callgraph shared with the
// statemachine and noblock passes (built once per driver run): direct
// calls and method calls resolve; calls through stored function values
// do not, matching the structure of the stack (the async seams are
// exactly the callback registrations this pass uses as roots). The
// protected-module check stays within the package under analysis — file
// names like send.go only mean something inside internal/tcp.
package quasisync

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the quasisync pass.
var Analyzer = &analysis.Analyzer{
	Name: "quasisync",
	Doc:  "async entry points (timer callbacks, wire delivery) may only enqueue tcp_actions, never call Receive/Send/Resend directly; observer hooks (observe.go: flight recorder, telemetry) observe only and never enqueue",
	Run:  run,
}

// protectedFiles hold the synchronous modules: functions declared in them
// may only run from the to_do drain.
var protectedFiles = map[string]bool{
	"receive.go":  true,
	"send.go":     true,
	"resend.go":   true,
	"fastpath.go": true,
}

// boundary names the executor functions async code may call; the
// traversal stops at them instead of descending into the drain.
var boundary = map[string]bool{
	"enqueue": true,
	"run":     true,
	"perform": true,
}

// observerFiles hold the observer hooks: functions declared there watch
// the executor's single door — the flight recorder journals what
// crosses it, the telemetry plane times it — and so face the inverse
// constraint. An observer must never drive the machine it is watching:
// no enqueue/run/perform, and no calls into the protected synchronous
// modules. A hook that enqueued would make an observed run diverge from
// the same run unobserved.
var observerFiles = map[string]bool{
	"observe.go": true,
}

// observerPackages extend the observer rule from single files to whole
// packages. The seal layer (internal/flight/seal) sits downstream of
// the recorder — it batches, hashes, and attests journal bytes — so
// every function in it is an observer: none may reach the executor's
// door or the synchronous modules, or sealing a journal could perturb
// the run being sealed.
// The fault plane (internal/fault) is an observer for the same reason
// from the other direction: it perturbs the wire through the segment's
// sanctioned control API and journals what it did, but must never
// mutate a TCB except through packets the stack receives normally.
// The telemetry plane (internal/telemetry) holds the histograms, series
// rings, and profiler the observe.go hooks write into; it is pure
// data-structure code, and making the whole package an observer proves
// no helper buried in it can reach back into the machine it measures.
var observerPackages = map[string]bool{
	"repro/internal/flight/seal": true,
	"repro/internal/fault":       true,
	"repro/internal/telemetry":   true,
	"flightseal":                 true, // this analyzer's own golden testdata
	"faultplane":                 true,
	"telemetry":                  true,
}

// allowedPackages exempts packages that attach wire handlers but sit
// outside the stack's quasi-synchronous discipline. The adversary is a
// raw segment injector — its delivery handler is a packet counter, not a
// TCP endpoint, so there is no to_do queue for it to enqueue onto.
var allowedPackages = map[string]bool{
	"repro/internal/adversary": true,
	"adversary":                true, // this analyzer's own golden testdata
}

// registrar reports whether the called function is an async registration
// point, returning a label for diagnostics and which arguments carry the
// asynchronously-invoked callbacks.
func registrar(fn *types.Func) (label string, ok bool) {
	switch {
	case fn.Name() == "Start" && fn.Pkg() != nil && fn.Pkg().Name() == "timers":
		return "timer callback (timers.Start)", true
	case fn.Name() == "Attach":
		return "wire delivery handler (Attach)", true
	}
	return "", false
}

func run(pass *analysis.Pass) (any, error) {
	if allowedPackages[pass.Pkg.Path()] {
		return nil, nil
	}
	g := pass.Shared.Memo("callgraph", func() any {
		return callgraph.Build(pass.Shared.Packages)
	}).(*callgraph.Graph)

	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callgraph.Callee(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			label, ok := registrar(fn)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				tv, ok := pass.TypesInfo.Types[arg]
				if !ok || tv.Type == nil {
					continue
				}
				if _, isFunc := tv.Type.Underlying().(*types.Signature); !isFunc {
					continue
				}
				if root := g.RootFor(pass.TypesInfo, arg); root != nil {
					checkRoot(pass, g, root, label, reported)
				}
			}
			return true
		})
	}

	obsPkg := observerPackages[pass.Pkg.Path()]
	for _, f := range pass.Files {
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		where := "in an observer package"
		if !obsPkg {
			if !observerFiles[base] {
				continue
			}
			where = "declared in " + base
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if node, ok := g.Funcs[fn]; ok {
				checkObserver(pass, g, node, where, reported)
			}
		}
	}
	return nil, nil
}

// checkObserver walks everything reachable from one recorder hook. The
// hooks observe the executor from inside it, so unlike async roots the
// boundary is not a sanctioned door here — calling it is the violation.
func checkObserver(pass *analysis.Pass, g *callgraph.Graph, root *callgraph.Node, where string, reported map[token.Pos]bool) {
	g.Walk(root, func(from *callgraph.Node, site *ast.CallExpr, callee *types.Func) bool {
		if boundary[callee.Name()] {
			if !reported[site.Pos()] {
				reported[site.Pos()] = true
				pass.Reportf(site.Pos(),
					"%s is a journal observer (%s) and calls %s — observers watch the executor, they must never drive it",
					from.Name(), where, callee.Name())
			}
			return false
		}
		if file := declFile(pass, g, callee); file != "" && protectedFiles[file] {
			if !reported[site.Pos()] {
				reported[site.Pos()] = true
				pass.Reportf(site.Pos(),
					"%s is a journal observer (%s) and calls %s, declared in %s — observers never enter the synchronous modules",
					from.Name(), where, callee.Name(), file)
			}
			return false
		}
		return true
	})
}

// checkRoot walks everything reachable from one registered callback:
// protected callees are reported (and not descended into), boundary
// callees are skipped, everything else with a known declaration is
// traversed — nested function literals included, since a closure built
// on the async path runs on the async path.
func checkRoot(pass *analysis.Pass, g *callgraph.Graph, root *callgraph.Node, label string, reported map[token.Pos]bool) {
	g.Walk(root, func(from *callgraph.Node, site *ast.CallExpr, callee *types.Func) bool {
		if boundary[callee.Name()] {
			return false
		}
		if file := declFile(pass, g, callee); file != "" && protectedFiles[file] {
			if !reported[site.Pos()] {
				reported[site.Pos()] = true
				pass.Reportf(site.Pos(),
					"%s is reachable from an async entry point (%s) and calls %s, declared in %s — a synchronous Receive/Send/Resend module; enqueue a tcp_action on to_do instead",
					from.Name(), label, callee.Name(), file)
			}
			return false
		}
		return true
	})
}

// declFile returns the base name of the file declaring fn, when fn is
// declared in the package under analysis.
func declFile(pass *analysis.Pass, g *callgraph.Graph, fn *types.Func) string {
	node, ok := g.Funcs[fn]
	if !ok || node.Pkg.Types != pass.Pkg {
		return ""
	}
	return filepath.Base(pass.Fset.Position(node.Decl.Pos()).Filename)
}
