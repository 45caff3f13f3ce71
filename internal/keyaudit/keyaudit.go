// Package keyaudit checks by reflection that a cache key covers the
// struct it is computed from. The design cache and the serving and sweep
// memos are content-addressed: a result is reused whenever two keys are
// equal, so a field that never reaches the key silently collides two
// different results. Tests in expt, serve and sweep run these checks over
// expt.Config, serve.Request and sweep.Scenario; a new field fails them
// until it is wired into the key or exempted with a reason.
package keyaudit

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// HashFields returns one problem per field that cannot feed a JSON content
// hash, in t and in every struct of t's module reachable from t through
// serialized fields: an unexported field or a json:"-" field (the hash
// never sees it), or a func, chan or complex field (json.Marshal fails).
func HashFields(t reflect.Type) []string {
	module, _, _ := strings.Cut(t.PkgPath(), "/")
	seen := map[reflect.Type]bool{}
	var problems []string
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(t.Elem())
		case reflect.Map:
			walk(t.Key())
			walk(t.Elem())
		case reflect.Struct:
			pkg, _, _ := strings.Cut(t.PkgPath(), "/")
			if seen[t] || (t.PkgPath() != "" && pkg != module) {
				return // other modules' structs serialize as they document
			}
			seen[t] = true
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				switch {
				case !f.IsExported():
					problems = append(problems, fmt.Sprintf("%s.%s is unexported: the JSON hash never sees it", t.Name(), f.Name))
				case name == "-":
					problems = append(problems, fmt.Sprintf("%s.%s is tagged json:\"-\": the JSON hash never sees it", t.Name(), f.Name))
				case unserializable(f.Type):
					problems = append(problems, fmt.Sprintf("%s.%s has type %s: json.Marshal fails on it", t.Name(), f.Name, f.Type))
				default:
					walk(f.Type)
				}
			}
		}
	}
	walk(t)
	return problems
}

func unserializable(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Func, reflect.Chan, reflect.Complex64, reflect.Complex128, reflect.UnsafePointer:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return unserializable(t.Elem())
	}
	return false
}

// KeyFields checks that every field of T moves key. Each field must be in
// perturb, whose entry changes that field of a copy of base (assigning
// fresh pointers and slices, never writing through base's), or in exempt
// with a reason. A field in neither table, a row naming no field, a
// perturbed copy whose key cannot be computed, and a perturbation that
// leaves the key unchanged are problems.
func KeyFields[T any](base T, key func(T) (string, error), perturb map[string]func(*T), exempt map[string]string) []string {
	baseKey, err := key(base)
	if err != nil {
		return []string{"base value: " + err.Error()}
	}
	var problems []string
	fields := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(base)) {
		if f.Anonymous {
			continue // its promoted fields are listed on their own
		}
		fields[f.Name] = true
		if reason, ok := exempt[f.Name]; ok {
			if reason == "" {
				problems = append(problems, fmt.Sprintf("field %s is exempt without a reason", f.Name))
			}
			continue
		}
		change, ok := perturb[f.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("field %s is in neither the perturbation nor the exempt table", f.Name))
			continue
		}
		v := base
		change(&v)
		switch k, err := key(v); {
		case err != nil:
			problems = append(problems, fmt.Sprintf("perturbed field %s: %v", f.Name, err))
		case k == baseKey:
			problems = append(problems, fmt.Sprintf("field %s does not change the key: two values differing only there share a cached result", f.Name))
		}
	}
	var rows []string
	for name := range perturb {
		rows = append(rows, name)
	}
	for name := range exempt {
		rows = append(rows, name)
	}
	sort.Strings(rows)
	for _, name := range rows {
		if !fields[name] {
			problems = append(problems, fmt.Sprintf("table row %s names no field", name))
		}
	}
	return problems
}
