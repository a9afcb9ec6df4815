package ml

import (
	"fmt"
	"log/slog"
	"math/rand"
	"slices"

	"autofeat/internal/frame"
)

// EvalResult is one train/test evaluation outcome.
type EvalResult struct {
	Model    string
	Accuracy float64
	AUC      float64
	F1       float64
}

// EvaluateFrame trains the classifier on a stratified 80/20 split of the
// frame restricted to the given feature columns, then scores it on the
// held-out test rows — the Section V-B methodology (imputation with the
// most frequent value, stratified split, accuracy on the test set).
func EvaluateFrame(f *frame.Frame, features []string, label string, c Classifier, seed int64) (EvalResult, error) {
	return EvaluateFrameLogged(f, features, label, c, seed, nil)
}

// EvaluateFrameLogged is EvaluateFrame with an optional structured logger:
// a non-nil lg receives one Debug record per evaluation (model, feature
// count, scores). A nil lg behaves exactly like EvaluateFrame.
func EvaluateFrameLogged(f *frame.Frame, features []string, label string, c Classifier, seed int64, lg *slog.Logger) (EvalResult, error) {
	if len(features) == 0 {
		return EvalResult{}, fmt.Errorf("ml: no features to evaluate")
	}
	// Only the features and the label are imputed and split: a
	// materialised path carries every column of every joined table. The
	// split reads only the label and the seed, so it keeps its rows. A
	// missing name is left for Matrix or Labels to report.
	used := make([]string, 0, len(features)+1)
	for _, name := range append(features[:len(features):len(features)], label) {
		if f.HasColumn(name) && !slices.Contains(used, name) {
			used = append(used, name)
		}
	}
	sub, err := f.Select(used...)
	if err != nil {
		return EvalResult{}, err
	}
	split, err := sub.Imputed().StratifiedSplit(label, 0.8, rand.New(rand.NewSource(seed)))
	if err != nil {
		return EvalResult{}, err
	}
	res, err := evaluateSplit(split.Train, split.Test, features, label, c)
	if err == nil && lg != nil {
		lg.Debug("model evaluated",
			"model", res.Model, "features", len(features),
			"accuracy", res.Accuracy, "auc", res.AUC, "f1", res.F1)
	}
	return res, err
}

func evaluateSplit(train, test *frame.Frame, features []string, label string, c Classifier) (EvalResult, error) {
	Xtr, err := train.Matrix(features)
	if err != nil {
		return EvalResult{}, err
	}
	ytr, err := train.Labels(label)
	if err != nil {
		return EvalResult{}, err
	}
	Xte, err := test.Matrix(features)
	if err != nil {
		return EvalResult{}, err
	}
	yte, err := test.Labels(label)
	if err != nil {
		return EvalResult{}, err
	}
	if err := c.Fit(Xtr, ytr); err != nil {
		return EvalResult{}, err
	}
	proba := c.PredictProba(Xte)
	pred := hardLabels(proba)
	return EvalResult{
		Model:    c.Name(),
		Accuracy: Accuracy(pred, yte),
		AUC:      AUC(proba, yte),
		F1:       F1(pred, yte),
	}, nil
}
