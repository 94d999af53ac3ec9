// Package cliflag holds the flag handling the command-line tools share:
// a malformed flag is a one-line error, and a flag that does not apply to
// the chosen run is an error, never silently ignored.
package cliflag

import (
	"errors"
	"flag"
	"io"
	"slices"
)

// Parse parses args into fs without the flag package's habit of printing
// the whole usage after every parse error: the caller reports the error,
// as one line. The usage goes to fs's output only when -h or -help asks
// for it, and Parse then returns flag.ErrHelp.
func Parse(fs *flag.FlagSet, args []string) error {
	out := fs.Output()
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	fs.SetOutput(out)
	if errors.Is(err, flag.ErrHelp) {
		fs.Usage()
	}
	return err
}

// Set returns the flags among names that were set on fs's command line,
// as "-name", in lexical order.
func Set(fs *flag.FlagSet, names ...string) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(names, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}
