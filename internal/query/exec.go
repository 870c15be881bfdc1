package query

import (
	"fmt"
	"strings"

	"github.com/ideadb/idea/internal/adm"
	"github.com/ideadb/idea/internal/sqlpp"
)

// projectRow evaluates the SELECT clause for one row (st.aggVals is set
// for grouped rows so aggregate calls resolve to their group's values).
func projectRow(st evalState, env *Env, sel *sqlpp.SelectExpr) (adm.Value, error) {
	if sel.SelectValue != nil {
		return eval(st, env, sel.SelectValue)
	}
	obj := adm.NewObject(len(sel.Projections))
	for i, proj := range sel.Projections {
		switch {
		case proj.Star && proj.Expr == nil:
			// Bare `*`: splice the innermost FROM binding when there is
			// exactly one; otherwise include each alias as a field.
			if len(sel.From) == 1 {
				v, ok := env.Lookup(sel.From[0].Alias)
				if !ok {
					return adm.Value{}, fmt.Errorf("query: alias %q not bound", sel.From[0].Alias)
				}
				if v.Kind() == adm.KindObject {
					spliceInto(obj, v)
					continue
				}
				obj.Set(sel.From[0].Alias, v)
				continue
			}
			for _, fc := range sel.From {
				if v, ok := env.Lookup(fc.Alias); ok {
					obj.Set(fc.Alias, v)
				}
			}
		case proj.Star:
			v, err := eval(st, env, proj.Expr)
			if err != nil {
				return adm.Value{}, err
			}
			if v.Kind() != adm.KindObject {
				return adm.Value{}, fmt.Errorf("query: .* requires an object, got %s", v.Kind())
			}
			spliceInto(obj, v)
		default:
			v, err := eval(st, env, proj.Expr)
			if err != nil {
				return adm.Value{}, err
			}
			obj.Set(projectionName(proj, i), v)
		}
	}
	return adm.ObjectValue(obj), nil
}

func spliceInto(dst *adm.Object, src adm.Value) {
	o := src.ObjectVal()
	for i := 0; i < o.Len(); i++ {
		dst.Set(o.Name(i), o.At(i))
	}
}

// projectionName derives the output field name: explicit alias, else the
// trailing path segment, else a positional placeholder ($1, $2 ...).
func projectionName(proj sqlpp.Projection, pos int) string {
	if proj.Alias != "" {
		return proj.Alias
	}
	switch e := proj.Expr.(type) {
	case *sqlpp.FieldAccess:
		return e.Field
	case *sqlpp.Ident:
		return e.Name
	}
	return fmt.Sprintf("$%d", pos+1)
}

func sameKeys(a, b []adm.Value) bool {
	for i := range a {
		if !adm.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// aggregateOver folds an aggregate over a value slice, skipping unknown
// values (SQL semantics): an aggregate called on an array in scalar
// position.
func aggregateOver(name string, vals []adm.Value) (adm.Value, error) {
	name = strings.ToLower(name)
	switch name {
	case "count":
		n := int64(0)
		for _, v := range vals {
			if !v.IsUnknown() {
				n++
			}
		}
		return adm.Int(n), nil
	case "sum", "avg":
		sum := 0.0
		allInt := true
		n := 0
		for _, v := range vals {
			if v.IsUnknown() {
				continue
			}
			f, ok := v.AsDouble()
			if !ok {
				return adm.Null(), nil
			}
			if v.Kind() != adm.KindInt64 {
				allInt = false
			}
			sum += f
			n++
		}
		if n == 0 {
			return adm.Null(), nil
		}
		if name == "avg" {
			return adm.Double(sum / float64(n)), nil
		}
		if allInt {
			return adm.Int(int64(sum)), nil
		}
		return adm.Double(sum), nil
	case "min", "max":
		var best adm.Value
		first := true
		for _, v := range vals {
			if v.IsUnknown() {
				continue
			}
			if first {
				best = v
				first = false
				continue
			}
			c := adm.Compare(v, best)
			if (name == "min" && c < 0) || (name == "max" && c > 0) {
				best = v
			}
		}
		if first {
			return adm.Null(), nil
		}
		return best, nil
	}
	return adm.Value{}, fmt.Errorf("query: unknown aggregate %q", name)
}
