// Package cliflag holds the flag check the command-line tools share: a
// flag that does not apply to the chosen run is an error, never silently
// ignored.
package cliflag

import (
	"flag"
	"slices"
)

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
