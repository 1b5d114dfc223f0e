import math
from fractions import Fraction

import pytest

from chromagraph import Corpus, Document, bow_predict, bow_scores, bow_train, cosine, \
    evaluate_predictions, jaccard, pearson, tfidf_centroid, tfidf_embed, tfidf_fit


def corpus_of(*texts):
    return Corpus(tuple(Document(tuple(t.split())) for t in texts), "t")


# -- tf-idf ---------------------------------------------------------------------

def test_single_document_idf_is_one():
    corpus = corpus_of("red red blue")
    model = tfidf_fit(corpus)
    assert model.idf == {"blue": 1.0, "red": 1.0}
    vec = tfidf_embed(model, corpus.docs[0])
    assert vec == {model.vocabulary["red"]: 2.0, model.vocabulary["blue"]: 1.0}


def test_idf_distinguishes_document_frequency():
    corpus = corpus_of("red blue", "red green")
    model = tfidf_fit(corpus)
    assert model.idf["red"] == pytest.approx(math.log(3 / 3) + 1, abs=1e-12)
    assert model.idf["blue"] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)


def test_embed_empty_document_is_zero_vector():
    model = tfidf_fit(corpus_of("a b"))
    assert tfidf_embed(model, Document(())) == {}


def test_embed_ignores_out_of_vocabulary():
    model = tfidf_fit(corpus_of("a b"))
    assert tfidf_embed(model, Document(("z", "a"))) == {model.vocabulary["a"]: 1.0}


def test_fit_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        tfidf_fit(Corpus((), "e"))


def test_centroid_averages_vectors():
    corpus = corpus_of("a a", "a b")
    model = tfidf_fit(corpus)
    centroid = tfidf_centroid(model, corpus)
    ia, ib = model.vocabulary["a"], model.vocabulary["b"]
    assert centroid[ia] == pytest.approx((2.0 + 1.0) / 2 * model.idf["a"])
    assert centroid[ib] == pytest.approx(model.idf["b"] / 2)


# -- cosine / jaccard / pearson ---------------------------------------------------

def test_cosine_identical_vectors():
    assert cosine({0: 2.0, 3: 1.0}, {0: 2.0, 3: 1.0}) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine({0: 1.0}, {1: 1.0}) == 0.0


def test_cosine_hand_value():
    assert cosine((1, 1, 0), (1, 0, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_cosine_zero_norm_convention():
    assert cosine({}, {0: 1.0}) == 0.0
    assert cosine((), ()) == 0.0


def test_cosine_scale_invariant():
    a = {0: 1.0, 1: 2.0, 5: 0.5}
    b = {i: 3.5 * x for i, x in a.items()}
    assert cosine(a, b) == pytest.approx(1.0, abs=1e-12)


def test_jaccard_identical():
    assert jaccard({"a", "b"}, {"a", "b"}) == 1.0


def test_jaccard_disjoint():
    assert jaccard({"a"}, {"b"}) == 0.0


def test_jaccard_hand_value():
    assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3, abs=1e-12)


def test_jaccard_both_empty():
    assert jaccard(set(), set()) == 0.0


def test_jaccard_symmetric():
    assert jaccard({"a", "b", "c"}, {"b"}) == jaccard({"b"}, {"a", "b", "c"})


def test_pearson_perfect_line():
    xs = [1.0, 2.0, 5.0, 7.0]
    assert pearson(xs, [2 * x + 3 for x in xs]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_negation():
    xs = [0.0, 1.0, 4.0]
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    assert pearson((1, 2, 3), (1, 3, 2)) == pytest.approx(0.5, abs=1e-12)


def test_pearson_affine_invariance():
    xs = (1.0, 4.0, 2.0, 9.0)
    ys = (2.0, 1.0, 7.0, 3.0)
    base = pearson(xs, ys)
    assert pearson([5 * x + 1 for x in xs], ys) == pytest.approx(base, abs=1e-12)
    assert pearson(xs, [0.5 * y - 4 for y in ys]) == pytest.approx(base, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(ValueError, match="length"):
        pearson((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="two points"):
        pearson((1,), (2,))
    with pytest.raises(ValueError, match="variance"):
        pearson((1, 1, 1), (1, 2, 3))


# -- naive Bayes ------------------------------------------------------------------

def hand_dataset():
    corpus = corpus_of("red red blue", "red green", "blue blue green", "green green green")
    labels = ("A", "A", "B", "B")
    return corpus, labels


def test_bow_matches_manual_posterior():
    corpus, labels = hand_dataset()
    clf = bow_train(corpus, labels, alpha=1.0)
    # class A: counts red 3, blue 1, green 1, total 5, vocab 3
    # class B: counts blue 2, green 4, red 0, total 6
    like_a = {"red": Fraction(4, 8), "blue": Fraction(2, 8), "green": Fraction(2, 8)}
    like_b = {"red": Fraction(1, 9), "blue": Fraction(3, 9), "green": Fraction(5, 9)}
    for token in ("red", "blue", "green"):
        assert clf.log_likelihood["A"][token] == math.log(float(like_a[token]))
        assert clf.log_likelihood["B"][token] == math.log(float(like_b[token]))
    assert clf.log_prior == {"A": math.log(0.5), "B": math.log(0.5)}

    doc = Document(("red", "blue"))
    scores = bow_scores(clf, doc)
    # scores accumulate in sorted-token order: blue, then red
    expected_a = math.log(0.5) + math.log(float(like_a["blue"])) + math.log(float(like_a["red"]))
    expected_b = math.log(0.5) + math.log(float(like_b["blue"])) + math.log(float(like_b["red"]))
    assert scores["A"] == expected_a
    assert scores["B"] == expected_b
    assert bow_predict(clf, doc) == "A"
    # the exact joint probabilities, for the record: A wins 1/16 over 1/54
    assert math.exp(scores["A"]) == pytest.approx(1 / 16, rel=1e-12)
    assert math.exp(scores["B"]) == pytest.approx(1 / 54, rel=1e-12)


def test_bow_likelihoods_normalize():
    corpus, labels = hand_dataset()
    clf = bow_train(corpus, labels)
    for c in clf.classes:
        total = math.fsum(math.exp(v) for v in clf.log_likelihood[c].values())
        assert total == pytest.approx(1.0, abs=1e-9)


def test_bow_training_docs_replayed():
    corpus = corpus_of("spam offer now", "hello dear friend")
    clf = bow_train(corpus, ("spam", "ham"))
    assert bow_predict(clf, corpus.docs[0]) == "spam"
    assert bow_predict(clf, corpus.docs[1]) == "ham"


def test_bow_empty_document_uses_priors():
    corpus = corpus_of("x", "x", "y")
    clf = bow_train(corpus, ("big", "big", "small"))
    assert bow_predict(clf, Document(())) == "big"


def test_bow_tie_breaks_lexicographically():
    corpus = corpus_of("x", "y")
    clf = bow_train(corpus, ("b", "a"))
    assert bow_predict(clf, Document(())) == "a"


def test_bow_token_order_invariant():
    corpus, labels = hand_dataset()
    clf = bow_train(corpus, labels)
    assert bow_scores(clf, Document(("red", "blue", "green"))) == \
        bow_scores(clf, Document(("green", "red", "blue")))


def test_bow_unknown_tokens_ignored():
    corpus, labels = hand_dataset()
    clf = bow_train(corpus, labels)
    assert bow_scores(clf, Document(("zzz",))) == clf.log_prior


def test_bow_needs_two_classes():
    with pytest.raises(ValueError, match="two classes"):
        bow_train(corpus_of("a", "b"), ("same", "same"))


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_bow_rejects_alpha_that_is_not_positive_and_finite(alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        bow_train(corpus_of("a", "b"), ("x", "y"), alpha)


def test_bow_label_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        bow_train(corpus_of("a"), ("x", "y"))


# -- evaluation -------------------------------------------------------------------

def test_evaluate_predictions():
    report = evaluate_predictions(["a", "a", "b", "b"], ["a", "b", "b", "b"])
    assert report["accuracy"] == 0.75
    assert report["precision"]["b"] == pytest.approx(2 / 3)
    assert report["recall"]["a"] == 0.5
    assert report["confusion"]["a"]["b"] == 1


def test_evaluate_handles_missing_predicted_class():
    report = evaluate_predictions(["a", "b"], ["a", "a"])
    assert report["precision"]["b"] == 0.0
    assert report["recall"]["b"] == 0.0
