package canon

import (
	"fmt"
	"reflect"
	"strconv"

	"vanetsim/internal/scenario"
)

// The schemas AppendBinary walks, built from the `canon` tags once, at
// package init. Each fixes every field's encoding up front, so the
// per-call walk inspects no types.
var (
	trialSchema = schemaOf(reflect.TypeOf(scenario.TrialConfig{}))
	denseSchema = schemaOf(reflect.TypeOf(scenario.DenseHighwayConfig{}))
	repSchema   = schemaOf(reflect.TypeOf(ReplicationSpec{}))
	degSchema   = schemaOf(reflect.TypeOf(DegradationSpec{}))
)

// A schema is a struct type's tagged fields in declaration order.
type schema struct {
	hashed  []leaf // one line family each of the canonical encoding
	skipped []leaf // canon:"-"; only name and index are set
}

// A leaf is one tagged field.
type leaf struct {
	key   string   // full key, nested prefixes included
	name  string   // Go field path, for diagnostics
	index []int    // field index path from the schema's root struct
	enc   encoding // of the value, or of each element of a scalar slice
	list  bool     // scalar slice: one comma-joined line
	cols  []leaf   // struct slice: one line per element, cols joined by ':'
}

// An encoding is how one scalar value is appended.
type encoding uint8

const (
	encFloat encoding = iota // strconv 'g' with the shortest exact digits
	encString
	encBool
	encInt
	encUint
	encMAC // the canonical wire spelling (macName)
)

// schemaOf walks t's `canon` tags. An exported field with no tag, or of
// a type the encoding cannot represent, is a bug in the config
// declarations, so it panics (at package init for the four schemas).
func schemaOf(t reflect.Type) schema {
	var s schema
	s.walk(t, "", "", nil)
	return s
}

func (s *schema) walk(t reflect.Type, prefix, name string, index []int) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		tag, ok := f.Tag.Lookup("canon")
		l := leaf{key: prefix + tag, name: name + f.Name, index: append(index[:len(index):len(index)], i)}
		switch {
		case !ok:
			panic(fmt.Sprintf("canon: %s.%s has no canon tag: give it a key, or canon:\"-\" if it cannot change result bytes", t, f.Name))
		case tag == "-":
			s.skipped = append(s.skipped, leaf{name: l.name, index: l.index})
		case f.Type.Kind() == reflect.Struct:
			s.walk(f.Type, l.key, l.name+".", l.index)
		case f.Type.Kind() != reflect.Slice:
			l.enc = encodingOf(f.Type)
			s.hashed = append(s.hashed, l)
		case f.Type.Elem().Kind() == reflect.Struct:
			// An element is encoded whole, so its fields need no tags.
			e := f.Type.Elem()
			for j := 0; j < e.NumField(); j++ {
				if e.Field(j).IsExported() {
					l.cols = append(l.cols, leaf{index: []int{j}, enc: encodingOf(e.Field(j).Type)})
				}
			}
			s.hashed = append(s.hashed, l)
		default:
			l.list, l.enc = true, encodingOf(f.Type.Elem())
			s.hashed = append(s.hashed, l)
		}
	}
}

func encodingOf(t reflect.Type) encoding {
	if t == reflect.TypeOf(scenario.MACType(0)) {
		return encMAC
	}
	switch t.Kind() {
	case reflect.Float32, reflect.Float64:
		return encFloat
	case reflect.String:
		return encString
	case reflect.Bool:
		return encBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return encInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return encUint
	}
	panic(fmt.Sprintf("canon: no canonical encoding for %s", t))
}

// append appends one key=value line per hashed leaf of v, which must be
// of the schema's struct type.
func (s *schema) append(dst []byte, v reflect.Value) []byte {
	for i := range s.hashed {
		l := &s.hashed[i]
		f := v.FieldByIndex(l.index)
		switch {
		case l.cols != nil:
			for j := 0; j < f.Len(); j++ {
				e := f.Index(j)
				dst = append(append(dst, l.key...), '=')
				for k := range l.cols {
					if k > 0 {
						dst = append(dst, ':')
					}
					dst = appendValue(dst, l.cols[k].enc, e.FieldByIndex(l.cols[k].index))
				}
				dst = append(dst, '\n')
			}
		case l.list:
			dst = append(append(dst, l.key...), '=')
			for j := 0; j < f.Len(); j++ {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendValue(dst, l.enc, f.Index(j))
			}
			dst = append(dst, '\n')
		default:
			dst = append(append(dst, l.key...), '=')
			dst = append(appendValue(dst, l.enc, f), '\n')
		}
	}
	return dst
}

func appendValue(dst []byte, enc encoding, v reflect.Value) []byte {
	switch enc {
	case encString:
		return append(dst, v.String()...)
	case encBool:
		return strconv.AppendBool(dst, v.Bool())
	case encInt:
		return strconv.AppendInt(dst, v.Int(), 10)
	case encUint:
		return strconv.AppendUint(dst, v.Uint(), 10)
	case encMAC:
		return append(dst, macName(scenario.MACType(v.Uint()))...)
	default:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	}
}
