package rt

import (
	"repro/internal/abi"
	"repro/internal/browser"
	"repro/internal/core"
	"repro/internal/posix"
)

// Loader returns the kernel executable loader: it parses the
// "compiled to JavaScript" header of an executable staged in the Browsix
// file system and produces the Web Worker entry point that boots the
// matching runtime around the registered program.
func Loader(sys *browser.System) core.Loader {
	return func(script []byte) (func(*browser.Worker), abi.Errno) {
		name, kindStr, ok := posix.ParseExecutable(script)
		if !ok {
			return nil, abi.ENOEXEC
		}
		kind := Kind(kindStr)
		if !kind.IsBrowsix() {
			return nil, abi.ENOEXEC
		}
		prog := posix.Lookup(name)
		if prog == nil {
			return nil, abi.ENOENT
		}
		return func(w *browser.Worker) { bootWorker(sys, w, prog, kind) }, abi.OK
	}
}

// InstallExecutable stages a program's executable into a filesystem image
// map (path -> bytes) with a modelled artifact size for its runtime. The
// bytes are posix.Executable's shared artifact: never modify them.
func InstallExecutable(image map[string][]byte, path, progName string, kind Kind) {
	image[path] = posix.Executable(progName, string(kind), ArtifactSize(kind))
}
