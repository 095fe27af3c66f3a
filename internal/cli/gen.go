// Package cli implements the command-line tools (mdsgen, mdsquery,
// mdsbench) as testable functions: each takes its argument vector and an
// output writer and returns an error instead of exiting, so the full tool
// surface runs under go test. The cmd/ main packages are thin wrappers.
package cli

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/fractal"
	"repro/internal/seqio"
	"repro/internal/video"
)

// Gen implements mdsgen: generate datasets or dump a sample sequence.
func Gen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdsgen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		kind   = fs.String("kind", "fractal", "dataset kind: fractal | video")
		count  = fs.Int("count", 1600, "number of sequences")
		minLen = fs.Int("minlen", 56, "minimum sequence length")
		maxLen = fs.Int("maxlen", 512, "maximum sequence length")
		seed   = fs.Int64("seed", 20000301, "RNG seed")
		out    = fs.String("o", "", "output file (required unless -dump); .csv selects CSV format")
		dump   = fs.Bool("dump", false, "print one generated sequence as text and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	if *dump {
		var s *core.Sequence
		var err error
		switch *kind {
		case "fractal":
			s, err = fractal.Generate(rng, *maxLen/2, fractal.DefaultConfig())
		case "video":
			s, err = video.GenerateFeatureSequence(rng, *maxLen/2, video.DefaultStreamConfig())
		default:
			return fmt.Errorf("unknown kind %q", *kind)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# %s sample sequence, %d points, dim %d\n", *kind, s.Len(), s.Dim())
		for i := range s.Len() {
			fmt.Fprintf(stdout, "%d", i)
			for _, v := range s.At(i) {
				fmt.Fprintf(stdout, "\t%.6f", v)
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}

	if *out == "" {
		fs.Usage()
		return fmt.Errorf("missing -o")
	}
	var seqs []*core.Sequence
	var err error
	switch *kind {
	case "fractal":
		seqs, err = fractal.GenerateSet(rng, *count, *minLen, *maxLen, fractal.DefaultConfig())
	case "video":
		seqs, err = video.GenerateSet(rng, *count, *minLen, *maxLen, video.DefaultStreamConfig())
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}
	write := seqio.WriteFile
	if strings.HasSuffix(*out, ".csv") {
		write = seqio.WriteCSVFile
	}
	if err := write(*out, seqs); err != nil {
		return err
	}
	var points int
	for _, s := range seqs {
		points += s.Len()
	}
	fmt.Fprintf(stdout, "wrote %d %s sequences (%d points) to %s\n", len(seqs), *kind, points, *out)
	return nil
}
