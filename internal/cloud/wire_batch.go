package cloud

import "errors"

// Wire shapes for the bulk API:
//
//	POST /v1/batch/create  {"items":[{type, region, attrs, ...}]}  -> {"results":[...]}
//	POST /v1/batch/get     {"keys":[{"type","id","if_generation"}]} -> {"results":[...]}
//	GET  /v1/resources/{type}?limit=&page_token=                   -> {"resources":[...], "next_page_token":""}
//
// A batch/get key's if_generation is optional. When it equals the resource's
// current generation, the result may be {"not_modified":true} in place of the
// resource: the caller's copy is still exact.

// wireBatchCreateItem is one create in a batch body. Unlike the single-create
// POST, the type travels in the body (the batch URL has no {type} segment).
type wireBatchCreateItem struct {
	Type           string         `json:"type"`
	Region         string         `json:"region,omitempty"`
	Attrs          map[string]any `json:"attrs"`
	Principal      string         `json:"principal,omitempty"`
	IdempotencyKey string         `json:"idempotency_key,omitempty"`
}

type wireBatchCreate struct {
	Items []wireBatchCreateItem `json:"items"`
}

type wireBatchGet struct {
	Keys []ResourceKey `json:"keys"`
}

// wireBatchResult carries one item outcome; exactly one field is set.
type wireBatchResult struct {
	Resource    *wireResource `json:"resource,omitempty"`
	Error       *APIError     `json:"error,omitempty"`
	NotModified bool          `json:"not_modified,omitempty"`
}

type wireBatchResults struct {
	Results []wireBatchResult `json:"results"`
}

// wireListPage is the response of a list: one page and the token of the next.
type wireListPage struct {
	Resources     []wireResource `json:"resources"`
	NextPageToken string         `json:"next_page_token,omitempty"`
}

func toWireBatchResults(results []BatchResult) wireBatchResults {
	out := wireBatchResults{Results: make([]wireBatchResult, len(results))}
	for i, r := range results {
		if r.Err != nil {
			var ae *APIError
			if !errors.As(r.Err, &ae) {
				ae = &APIError{Code: CodeInternal, Message: r.Err.Error()}
			}
			out.Results[i].Error = ae
			continue
		}
		if r.NotModified {
			out.Results[i].NotModified = true
			continue
		}
		w := toWire(r.Resource)
		out.Results[i].Resource = &w
	}
	return out
}

func fromWireBatchResults(w wireBatchResults) []BatchResult {
	out := make([]BatchResult, len(w.Results))
	for i, r := range w.Results {
		switch {
		case r.Error != nil:
			out[i].Err = r.Error
		case r.Resource != nil:
			out[i].Resource = fromWire(*r.Resource)
		case r.NotModified:
			out[i].NotModified = true
		default:
			out[i].Err = &APIError{Code: CodeInternal, Op: "batch",
				Message: "MalformedResponse: batch item carries no resource, error or not_modified"}
		}
	}
	return out
}
