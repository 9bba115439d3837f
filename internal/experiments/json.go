package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"dragonfly/internal/obs"
)

// jsonReport is the machine-readable envelope WriteJSON emits. It
// carries the same schema version as the run reports in internal/obs so
// a consumer checks one number for the whole toolchain.
type jsonReport struct {
	SchemaVersion int           `json:"schema_version"`
	Kind          string        `json:"kind"`
	Exhibits      []jsonExhibit `json:"exhibits"`
}

// jsonExhibit is one exhibit of the report: exactly one of Figure and
// Table is set, discriminated by Type.
type jsonExhibit struct {
	// Experiment is the id the exhibit was produced by ("fig8",
	// "transient", ...).
	Experiment string  `json:"experiment"`
	Type       string  `json:"type"`
	Figure     *Figure `json:"figure,omitempty"`
	Table      *Table  `json:"table,omitempty"`
}

// WriteJSON writes the exhibits of the named experiments as one
// versioned JSON report. The two slices are parallel: exhibits[i]
// holds the exhibits produced by names[i].
func WriteJSON(w io.Writer, names []string, exhibits [][]Exhibit) error {
	rep := jsonReport{SchemaVersion: obs.SchemaVersion, Kind: "experiments"}
	for i, name := range names {
		for _, e := range exhibits[i] {
			je := jsonExhibit{Experiment: name}
			switch v := e.(type) {
			case *Figure:
				je.Type = "figure"
				je.Figure = v
			case *Table:
				je.Type = "table"
				je.Table = v
			default:
				return fmt.Errorf("experiments: %s: unknown exhibit type %T", name, e)
			}
			rep.Exhibits = append(rep.Exhibits, je)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
