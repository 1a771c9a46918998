package ui

import (
	"repro/internal/media/raster"
)

// Box is the embeddable base widget: bounds, id, visibility. Its zero value
// is a visible, empty-id widget at the origin. Embedders override Paint and
// Mouse as needed.
type Box struct {
	id     string
	bounds raster.Rect
	hidden bool
}

// NewBox returns a Box with the given id and bounds.
func NewBox(id string, b raster.Rect) Box {
	return Box{id: id, bounds: b}
}

// ID returns the widget id.
func (b *Box) ID() string { return b.id }

// Bounds returns the widget rectangle.
func (b *Box) Bounds() raster.Rect { return b.bounds }

// SetBounds moves/resizes the widget.
func (b *Box) SetBounds(r raster.Rect) { b.bounds = r }

// Visible reports whether the widget is painted and hit-testable.
func (b *Box) Visible() bool { return !b.hidden }

// SetVisible shows or hides the widget.
func (b *Box) SetVisible(v bool) { b.hidden = !v }

// Paint draws nothing; embedders override.
func (b *Box) Paint(f *raster.Frame) {}

// Mouse ignores events; embedders override.
func (b *Box) Mouse(ev MouseEvent) bool { return false }

// Theme colors shared by the stock widgets — the beige-and-navy palette of
// a mid-2000s desktop application, which is what the paper's screenshots
// show.
var (
	ThemeBg        = raster.RGB{R: 212, G: 208, B: 200}
	ThemeBgDark    = raster.RGB{R: 170, G: 166, B: 160}
	ThemePanel     = raster.RGB{R: 230, G: 228, B: 222}
	ThemeBorder    = raster.RGB{R: 80, G: 80, B: 90}
	ThemeText      = raster.RGB{R: 20, G: 20, B: 30}
	ThemeTitle     = raster.RGB{R: 10, G: 36, B: 106}
	ThemeTitleText = raster.White
	ThemeAccent    = raster.RGB{R: 49, G: 106, B: 197}
	ThemeHilite    = raster.RGB{R: 255, G: 240, B: 160}
)

// Label is a static text widget.
type Label struct {
	Box
	Text  string
	Color raster.RGB
}

// NewLabel creates a label with theme text color.
func NewLabel(id string, b raster.Rect, text string) *Label {
	return &Label{Box: NewBox(id, b), Text: text, Color: ThemeText}
}

// Paint renders the text clipped to the label bounds.
func (l *Label) Paint(f *raster.Frame) {
	r := l.Bounds()
	ty := r.Y + (r.H-raster.GlyphH)/2
	f.DrawTextClipped(r.X+1, ty, raster.FitText(l.Text, r.W-2), l.Color, r)
}

// Button is a clickable push button.
type Button struct {
	Box
	Text    string
	OnClick func()
	pressed bool
}

// NewButton creates a button; onClick may be nil.
func NewButton(id string, b raster.Rect, text string, onClick func()) *Button {
	return &Button{Box: NewBox(id, b), Text: text, OnClick: onClick}
}

// Paint draws the classic raised button face.
func (b *Button) Paint(f *raster.Frame) {
	r := b.Bounds()
	face := ThemeBg
	if b.pressed {
		face = ThemeBgDark
	}
	f.FillRect(r, face)
	f.DrawRect(r, ThemeBorder)
	// 3-D highlight on top/left edge.
	if !b.pressed {
		f.HLine(r.X+1, r.X+r.W-2, r.Y+1, raster.White)
		f.VLine(r.X+1, r.Y+1, r.Y+r.H-2, raster.White)
	}
	tw := raster.TextWidth(raster.FitText(b.Text, r.W-4))
	tx := r.X + (r.W-tw)/2
	ty := r.Y + (r.H-raster.GlyphH)/2
	f.DrawTextClipped(tx, ty, raster.FitText(b.Text, r.W-4), ThemeText, r)
}

// Mouse presses on Down, fires OnClick on Click/Up.
func (b *Button) Mouse(ev MouseEvent) bool {
	switch ev.Kind {
	case MouseDown:
		b.pressed = true
		return true
	case MouseUp, MouseClick:
		wasPressed := b.pressed || ev.Kind == MouseClick
		b.pressed = false
		if wasPressed && b.OnClick != nil {
			b.OnClick()
		}
		return true
	}
	return false
}

// TextField is a single-line editable text input.
type TextField struct {
	Box
	Text     string
	OnChange func(string)
	OnSubmit func(string)
	focused  bool
}

// NewTextField creates a text field with initial content.
func NewTextField(id string, b raster.Rect, text string) *TextField {
	return &TextField{Box: NewBox(id, b), Text: text}
}

// Paint draws the sunken input with a caret when focused.
func (t *TextField) Paint(f *raster.Frame) {
	r := t.Bounds()
	f.FillRect(r, raster.White)
	border := ThemeBorder
	if t.focused {
		border = ThemeAccent
	}
	f.DrawRect(r, border)
	txt := raster.FitText(t.Text, r.W-6)
	ty := r.Y + (r.H-raster.GlyphH)/2
	f.DrawTextClipped(r.X+2, ty, txt, ThemeText, r)
	if t.focused {
		cx := r.X + 3 + raster.TextWidth(txt)
		f.VLine(cx, r.Y+2, r.Y+r.H-3, ThemeAccent)
	}
}

// Mouse consumes clicks (focus assignment happens in the Window).
func (t *TextField) Mouse(ev MouseEvent) bool { return true }

// SetFocused toggles the caret.
func (t *TextField) SetFocused(v bool) { t.focused = v }

// Keyboard edits the field: printable runes append, backspace deletes,
// enter submits.
func (t *TextField) Keyboard(ev KeyEvent) bool {
	switch {
	case ev.Key == KeyBackspace:
		if len(t.Text) > 0 {
			rs := []rune(t.Text)
			t.Text = string(rs[:len(rs)-1])
			if t.OnChange != nil {
				t.OnChange(t.Text)
			}
		}
		return true
	case ev.Key == KeyEnter:
		if t.OnSubmit != nil {
			t.OnSubmit(t.Text)
		}
		return true
	case ev.Rune != 0:
		t.Text += string(ev.Rune)
		if t.OnChange != nil {
			t.OnChange(t.Text)
		}
		return true
	}
	return false
}
