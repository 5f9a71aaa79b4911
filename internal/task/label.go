package task

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
)

// LabelForm names a registered label format (see NewLabelForm). A task
// labelled through a form holds its operands — one string and up to three
// integers — and renders the text only when Label is read, so graphs of
// hundreds of thousands of tasks carry no label text until an observer asks
// for it.
type LabelForm uint8

// labelFormat is a parsed format: lits[i] precedes verb i, and the last
// literal follows the final verb.
type labelFormat struct {
	lits  []string
	verbs []byte // 's' or 'd'
	ints  int    // number of 'd' verbs
	// collective marks a form whose string operand names the collective
	// instance the task is a step of (see NewCollectiveLabelForm).
	collective bool
}

// forms is the append-only form registry. Form 0 is the static label.
// Entries are written once, under formsMu, before their LabelForm is handed
// out, and never change afterwards, so Label reads them without the lock.
var (
	formsMu sync.Mutex
	forms   [math.MaxUint8 + 1]labelFormat
	nForms  = 1
)

// NewLabelForm registers a label format for Task.SetLabelf: literal text
// with at most one %s and at most three %d verbs, and no other verb. A form
// renders byte for byte what fmt.Sprintf renders for the same format and
// operands. Register forms once, in package-level variable declarations; it
// panics on an unsupported format or when 255 forms exist.
func NewLabelForm(format string) LabelForm {
	return registerForm(parseForm(format))
}

// NewCollectiveLabelForm registers a form for the steps of a collective
// instance: its one %s operand is the instance's name, which
// Task.Collective returns for every task labelled through the form. It
// panics on a format without exactly one %s, or as NewLabelForm does.
func NewCollectiveLabelForm(format string) LabelForm {
	f := parseForm(format)
	if !slices.Contains(f.verbs, 's') {
		panic(fmt.Sprintf("task: collective label format %q has no %%s",
			format))
	}
	f.collective = true
	return registerForm(f)
}

// parseForm parses a label format, panicking on an unsupported one.
func parseForm(format string) labelFormat {
	var f labelFormat
	start, strs := 0, 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		var v byte
		if i+1 < len(format) {
			v = format[i+1]
		}
		switch v {
		case 's':
			strs++
		case 'd':
			f.ints++
		default:
			panic(fmt.Sprintf("task: label format %q: only %%s and %%d "+
				"are supported", format))
		}
		f.lits = append(f.lits, format[start:i])
		f.verbs = append(f.verbs, v)
		i++
		start = i + 1
	}
	f.lits = append(f.lits, format[start:])
	if strs > 1 || f.ints > maxLabelInts {
		panic(fmt.Sprintf("task: label format %q: more than one %%s or "+
			"three %%d", format))
	}
	return f
}

// registerForm appends f to the registry and returns its id.
func registerForm(f labelFormat) LabelForm {
	formsMu.Lock()
	defer formsMu.Unlock()
	if nForms == len(forms) {
		panic("task: too many label forms")
	}
	forms[nForms] = f
	nForms++
	return LabelForm(nForms - 1)
}

// SetLabelf labels t with form f over the operands s and ints, rendered on
// read. ints must match the form's %d verbs; s is ignored by a form without
// %s. A value outside int32 is rendered at once into a static label; for a
// collective form, args then record where s sits in it, so Collective still
// returns s.
func (t *Task) SetLabelf(f LabelForm, s string, ints ...int) {
	spec := &forms[f]
	if f == 0 || len(ints) != spec.ints {
		panic(fmt.Sprintf("task: label form %d takes %d ints, got %d", f,
			spec.ints, len(ints)))
	}
	var wide [maxLabelInts]int64
	fits := true
	for i, v := range ints {
		wide[i] = int64(v)
		fits = fits && v >= math.MinInt32 && v <= math.MaxInt32
	}
	if !fits {
		b, at := spec.appendTo(nil, s, &wide)
		t.label, t.form, t.args = string(b), 0, [maxLabelInts]int32{}
		if spec.collective {
			t.args[0], t.args[1] = int32(at), int32(len(s))
		}
		return
	}
	t.label, t.form = s, f
	for i, v := range ints {
		t.args[i] = int32(v)
	}
}

// Collective returns the name of the collective instance t is a step of:
// the string operand of a collective form (see NewCollectiveLabelForm), or
// "" for a task labelled any other way.
func (t *Task) Collective() string {
	if t.form == 0 {
		// A static label: args span the operand of a collective form's
		// out-of-int32 fallback, and are zero (the empty span) otherwise.
		return t.label[t.args[0] : t.args[0]+t.args[1]]
	}
	if forms[t.form].collective {
		return t.label
	}
	return ""
}

// Label returns the task's label, rendering a formatted one.
func (t *Task) Label() string {
	if t.form == 0 {
		return t.label
	}
	return string(t.AppendLabel(make([]byte, 0, 48)))
}

// AppendLabel appends the task's label to b, so hot readers (the span
// recorder's string interning) can look a label up without allocating it.
func (t *Task) AppendLabel(b []byte) []byte {
	if t.form == 0 {
		return append(b, t.label...)
	}
	var wide [maxLabelInts]int64
	for i, v := range t.args {
		wide[i] = int64(v)
	}
	b, _ = forms[t.form].appendTo(b, t.label, &wide)
	return b
}

// appendTo renders the format over s and ints onto b, also returning the
// offset in b at which s was written.
func (f *labelFormat) appendTo(b []byte, s string,
	ints *[maxLabelInts]int64) (_ []byte, sAt int) {
	n := 0
	for i, v := range f.verbs {
		b = append(b, f.lits[i]...)
		if v == 's' {
			sAt = len(b)
			b = append(b, s...)
			continue
		}
		b = strconv.AppendInt(b, ints[n], 10)
		n++
	}
	return append(b, f.lits[len(f.verbs)]...), sAt
}
