package xdm

import (
	"errors"
	"fmt"
	"time"
)

// ErrNullParameter refuses a NULL statement parameter: a `?` bound to NULL
// could only ever compare unknown.
var ErrNullParameter = errors.New("NULL parameters are not supported (comparisons with NULL are never true in SQL)")

// FromGo converts a Go value to an atomic value, accepting the types
// database/sql users pass as statement parameters. It is the single
// Go-to-XDM parameter conversion shared by compiled-statement execution
// (the facade and the database/sql driver), CALL statements, and the
// remote client, so a parameter means the same thing — and a NULL one is
// refused with the same message — on every path.
func FromGo(v any) (Atomic, error) {
	switch v := v.(type) {
	case int:
		return Integer(v), nil
	case int32:
		return Integer(v), nil
	case int64:
		return Integer(v), nil
	case float32:
		return Double(v), nil
	case float64:
		return Double(v), nil
	case bool:
		return Boolean(v), nil
	case string:
		return String(v), nil
	case []byte:
		return String(string(v)), nil
	case time.Time:
		return DateTime{T: v}, nil
	case Atomic:
		return v, nil
	case nil:
		return nil, ErrNullParameter
	default:
		return nil, fmt.Errorf("unsupported parameter type %T", v)
	}
}
