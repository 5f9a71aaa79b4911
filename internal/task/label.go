package task

import (
	"fmt"
	"math"
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
// %s. A value outside int32 is rendered at once into a static label.
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
		t.label, t.form = string(spec.appendTo(nil, s, &wide)), 0
		return
	}
	t.label, t.form = s, f
	for i, v := range ints {
		t.args[i] = int32(v)
	}
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
	return forms[t.form].appendTo(b, t.label, &wide)
}

// appendTo renders the format over s and ints onto b.
func (f *labelFormat) appendTo(b []byte, s string,
	ints *[maxLabelInts]int64) []byte {
	n := 0
	for i, v := range f.verbs {
		b = append(b, f.lits[i]...)
		if v == 's' {
			b = append(b, s...)
			continue
		}
		b = strconv.AppendInt(b, ints[n], 10)
		n++
	}
	return append(b, f.lits[len(f.verbs)]...)
}
