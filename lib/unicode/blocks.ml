type t = { name : string; first : Cp.t; last : Cp.t }

(* Block ranges from the Unicode Character Database Blocks.txt
   (Unicode 15.0 repertoire). *)
let all =
  [|
    { first = 0x0000; last = 0x007F; name = "Basic Latin" };
    { first = 0x0080; last = 0x00FF; name = "Latin-1 Supplement" };
    { first = 0x0100; last = 0x017F; name = "Latin Extended-A" };
    { first = 0x0180; last = 0x024F; name = "Latin Extended-B" };
    { first = 0x0250; last = 0x02AF; name = "IPA Extensions" };
    { first = 0x02B0; last = 0x02FF; name = "Spacing Modifier Letters" };
    { first = 0x0300; last = 0x036F; name = "Combining Diacritical Marks" };
    { first = 0x0370; last = 0x03FF; name = "Greek and Coptic" };
    { first = 0x0400; last = 0x04FF; name = "Cyrillic" };
    { first = 0x0500; last = 0x052F; name = "Cyrillic Supplement" };
    { first = 0x0530; last = 0x058F; name = "Armenian" };
    { first = 0x0590; last = 0x05FF; name = "Hebrew" };
    { first = 0x0600; last = 0x06FF; name = "Arabic" };
    { first = 0x0700; last = 0x074F; name = "Syriac" };
    { first = 0x0750; last = 0x077F; name = "Arabic Supplement" };
    { first = 0x0780; last = 0x07BF; name = "Thaana" };
    { first = 0x07C0; last = 0x07FF; name = "NKo" };
    { first = 0x0800; last = 0x083F; name = "Samaritan" };
    { first = 0x0840; last = 0x085F; name = "Mandaic" };
    { first = 0x0860; last = 0x086F; name = "Syriac Supplement" };
    { first = 0x0870; last = 0x089F; name = "Arabic Extended-B" };
    { first = 0x08A0; last = 0x08FF; name = "Arabic Extended-A" };
    { first = 0x0900; last = 0x097F; name = "Devanagari" };
    { first = 0x0980; last = 0x09FF; name = "Bengali" };
    { first = 0x0A00; last = 0x0A7F; name = "Gurmukhi" };
    { first = 0x0A80; last = 0x0AFF; name = "Gujarati" };
    { first = 0x0B00; last = 0x0B7F; name = "Oriya" };
    { first = 0x0B80; last = 0x0BFF; name = "Tamil" };
    { first = 0x0C00; last = 0x0C7F; name = "Telugu" };
    { first = 0x0C80; last = 0x0CFF; name = "Kannada" };
    { first = 0x0D00; last = 0x0D7F; name = "Malayalam" };
    { first = 0x0D80; last = 0x0DFF; name = "Sinhala" };
    { first = 0x0E00; last = 0x0E7F; name = "Thai" };
    { first = 0x0E80; last = 0x0EFF; name = "Lao" };
    { first = 0x0F00; last = 0x0FFF; name = "Tibetan" };
    { first = 0x1000; last = 0x109F; name = "Myanmar" };
    { first = 0x10A0; last = 0x10FF; name = "Georgian" };
    { first = 0x1100; last = 0x11FF; name = "Hangul Jamo" };
    { first = 0x1200; last = 0x137F; name = "Ethiopic" };
    { first = 0x1380; last = 0x139F; name = "Ethiopic Supplement" };
    { first = 0x13A0; last = 0x13FF; name = "Cherokee" };
    { first = 0x1400; last = 0x167F; name = "Unified Canadian Aboriginal Syllabics" };
    { first = 0x1680; last = 0x169F; name = "Ogham" };
    { first = 0x16A0; last = 0x16FF; name = "Runic" };
    { first = 0x1700; last = 0x171F; name = "Tagalog" };
    { first = 0x1720; last = 0x173F; name = "Hanunoo" };
    { first = 0x1740; last = 0x175F; name = "Buhid" };
    { first = 0x1760; last = 0x177F; name = "Tagbanwa" };
    { first = 0x1780; last = 0x17FF; name = "Khmer" };
    { first = 0x1800; last = 0x18AF; name = "Mongolian" };
    { first = 0x18B0; last = 0x18FF; name = "Unified Canadian Aboriginal Syllabics Extended" };
    { first = 0x1900; last = 0x194F; name = "Limbu" };
    { first = 0x1950; last = 0x197F; name = "Tai Le" };
    { first = 0x1980; last = 0x19DF; name = "New Tai Lue" };
    { first = 0x19E0; last = 0x19FF; name = "Khmer Symbols" };
    { first = 0x1A00; last = 0x1A1F; name = "Buginese" };
    { first = 0x1A20; last = 0x1AAF; name = "Tai Tham" };
    { first = 0x1AB0; last = 0x1AFF; name = "Combining Diacritical Marks Extended" };
    { first = 0x1B00; last = 0x1B7F; name = "Balinese" };
    { first = 0x1B80; last = 0x1BBF; name = "Sundanese" };
    { first = 0x1BC0; last = 0x1BFF; name = "Batak" };
    { first = 0x1C00; last = 0x1C4F; name = "Lepcha" };
    { first = 0x1C50; last = 0x1C7F; name = "Ol Chiki" };
    { first = 0x1C80; last = 0x1C8F; name = "Cyrillic Extended-C" };
    { first = 0x1C90; last = 0x1CBF; name = "Georgian Extended" };
    { first = 0x1CC0; last = 0x1CCF; name = "Sundanese Supplement" };
    { first = 0x1CD0; last = 0x1CFF; name = "Vedic Extensions" };
    { first = 0x1D00; last = 0x1D7F; name = "Phonetic Extensions" };
    { first = 0x1D80; last = 0x1DBF; name = "Phonetic Extensions Supplement" };
    { first = 0x1DC0; last = 0x1DFF; name = "Combining Diacritical Marks Supplement" };
    { first = 0x1E00; last = 0x1EFF; name = "Latin Extended Additional" };
    { first = 0x1F00; last = 0x1FFF; name = "Greek Extended" };
    { first = 0x2000; last = 0x206F; name = "General Punctuation" };
    { first = 0x2070; last = 0x209F; name = "Superscripts and Subscripts" };
    { first = 0x20A0; last = 0x20CF; name = "Currency Symbols" };
    { first = 0x20D0; last = 0x20FF; name = "Combining Diacritical Marks for Symbols" };
    { first = 0x2100; last = 0x214F; name = "Letterlike Symbols" };
    { first = 0x2150; last = 0x218F; name = "Number Forms" };
    { first = 0x2190; last = 0x21FF; name = "Arrows" };
    { first = 0x2200; last = 0x22FF; name = "Mathematical Operators" };
    { first = 0x2300; last = 0x23FF; name = "Miscellaneous Technical" };
    { first = 0x2400; last = 0x243F; name = "Control Pictures" };
    { first = 0x2440; last = 0x245F; name = "Optical Character Recognition" };
    { first = 0x2460; last = 0x24FF; name = "Enclosed Alphanumerics" };
    { first = 0x2500; last = 0x257F; name = "Box Drawing" };
    { first = 0x2580; last = 0x259F; name = "Block Elements" };
    { first = 0x25A0; last = 0x25FF; name = "Geometric Shapes" };
    { first = 0x2600; last = 0x26FF; name = "Miscellaneous Symbols" };
    { first = 0x2700; last = 0x27BF; name = "Dingbats" };
    { first = 0x27C0; last = 0x27EF; name = "Miscellaneous Mathematical Symbols-A" };
    { first = 0x27F0; last = 0x27FF; name = "Supplemental Arrows-A" };
    { first = 0x2800; last = 0x28FF; name = "Braille Patterns" };
    { first = 0x2900; last = 0x297F; name = "Supplemental Arrows-B" };
    { first = 0x2980; last = 0x29FF; name = "Miscellaneous Mathematical Symbols-B" };
    { first = 0x2A00; last = 0x2AFF; name = "Supplemental Mathematical Operators" };
    { first = 0x2B00; last = 0x2BFF; name = "Miscellaneous Symbols and Arrows" };
    { first = 0x2C00; last = 0x2C5F; name = "Glagolitic" };
    { first = 0x2C60; last = 0x2C7F; name = "Latin Extended-C" };
    { first = 0x2C80; last = 0x2CFF; name = "Coptic" };
    { first = 0x2D00; last = 0x2D2F; name = "Georgian Supplement" };
    { first = 0x2D30; last = 0x2D7F; name = "Tifinagh" };
    { first = 0x2D80; last = 0x2DDF; name = "Ethiopic Extended" };
    { first = 0x2DE0; last = 0x2DFF; name = "Cyrillic Extended-A" };
    { first = 0x2E00; last = 0x2E7F; name = "Supplemental Punctuation" };
    { first = 0x2E80; last = 0x2EFF; name = "CJK Radicals Supplement" };
    { first = 0x2F00; last = 0x2FDF; name = "Kangxi Radicals" };
    { first = 0x2FF0; last = 0x2FFF; name = "Ideographic Description Characters" };
    { first = 0x3000; last = 0x303F; name = "CJK Symbols and Punctuation" };
    { first = 0x3040; last = 0x309F; name = "Hiragana" };
    { first = 0x30A0; last = 0x30FF; name = "Katakana" };
    { first = 0x3100; last = 0x312F; name = "Bopomofo" };
    { first = 0x3130; last = 0x318F; name = "Hangul Compatibility Jamo" };
    { first = 0x3190; last = 0x319F; name = "Kanbun" };
    { first = 0x31A0; last = 0x31BF; name = "Bopomofo Extended" };
    { first = 0x31C0; last = 0x31EF; name = "CJK Strokes" };
    { first = 0x31F0; last = 0x31FF; name = "Katakana Phonetic Extensions" };
    { first = 0x3200; last = 0x32FF; name = "Enclosed CJK Letters and Months" };
    { first = 0x3300; last = 0x33FF; name = "CJK Compatibility" };
    { first = 0x3400; last = 0x4DBF; name = "CJK Unified Ideographs Extension A" };
    { first = 0x4DC0; last = 0x4DFF; name = "Yijing Hexagram Symbols" };
    { first = 0x4E00; last = 0x9FFF; name = "CJK Unified Ideographs" };
    { first = 0xA000; last = 0xA48F; name = "Yi Syllables" };
    { first = 0xA490; last = 0xA4CF; name = "Yi Radicals" };
    { first = 0xA4D0; last = 0xA4FF; name = "Lisu" };
    { first = 0xA500; last = 0xA63F; name = "Vai" };
    { first = 0xA640; last = 0xA69F; name = "Cyrillic Extended-B" };
    { first = 0xA6A0; last = 0xA6FF; name = "Bamum" };
    { first = 0xA700; last = 0xA71F; name = "Modifier Tone Letters" };
    { first = 0xA720; last = 0xA7FF; name = "Latin Extended-D" };
    { first = 0xA800; last = 0xA82F; name = "Syloti Nagri" };
    { first = 0xA830; last = 0xA83F; name = "Common Indic Number Forms" };
    { first = 0xA840; last = 0xA87F; name = "Phags-pa" };
    { first = 0xA880; last = 0xA8DF; name = "Saurashtra" };
    { first = 0xA8E0; last = 0xA8FF; name = "Devanagari Extended" };
    { first = 0xA900; last = 0xA92F; name = "Kayah Li" };
    { first = 0xA930; last = 0xA95F; name = "Rejang" };
    { first = 0xA960; last = 0xA97F; name = "Hangul Jamo Extended-A" };
    { first = 0xA980; last = 0xA9DF; name = "Javanese" };
    { first = 0xA9E0; last = 0xA9FF; name = "Myanmar Extended-B" };
    { first = 0xAA00; last = 0xAA5F; name = "Cham" };
    { first = 0xAA60; last = 0xAA7F; name = "Myanmar Extended-A" };
    { first = 0xAA80; last = 0xAADF; name = "Tai Viet" };
    { first = 0xAAE0; last = 0xAAFF; name = "Meetei Mayek Extensions" };
    { first = 0xAB00; last = 0xAB2F; name = "Ethiopic Extended-A" };
    { first = 0xAB30; last = 0xAB6F; name = "Latin Extended-E" };
    { first = 0xAB70; last = 0xABBF; name = "Cherokee Supplement" };
    { first = 0xABC0; last = 0xABFF; name = "Meetei Mayek" };
    { first = 0xAC00; last = 0xD7AF; name = "Hangul Syllables" };
    { first = 0xD7B0; last = 0xD7FF; name = "Hangul Jamo Extended-B" };
    { first = 0xD800; last = 0xDB7F; name = "High Surrogates" };
    { first = 0xDB80; last = 0xDBFF; name = "High Private Use Surrogates" };
    { first = 0xDC00; last = 0xDFFF; name = "Low Surrogates" };
    { first = 0xE000; last = 0xF8FF; name = "Private Use Area" };
    { first = 0xF900; last = 0xFAFF; name = "CJK Compatibility Ideographs" };
    { first = 0xFB00; last = 0xFB4F; name = "Alphabetic Presentation Forms" };
    { first = 0xFB50; last = 0xFDFF; name = "Arabic Presentation Forms-A" };
    { first = 0xFE00; last = 0xFE0F; name = "Variation Selectors" };
    { first = 0xFE10; last = 0xFE1F; name = "Vertical Forms" };
    { first = 0xFE20; last = 0xFE2F; name = "Combining Half Marks" };
    { first = 0xFE30; last = 0xFE4F; name = "CJK Compatibility Forms" };
    { first = 0xFE50; last = 0xFE6F; name = "Small Form Variants" };
    { first = 0xFE70; last = 0xFEFF; name = "Arabic Presentation Forms-B" };
    { first = 0xFF00; last = 0xFFEF; name = "Halfwidth and Fullwidth Forms" };
    { first = 0xFFF0; last = 0xFFFF; name = "Specials" };
    { first = 0x10000; last = 0x1007F; name = "Linear B Syllabary" };
    { first = 0x10080; last = 0x100FF; name = "Linear B Ideograms" };
    { first = 0x10100; last = 0x1013F; name = "Aegean Numbers" };
    { first = 0x10140; last = 0x1018F; name = "Ancient Greek Numbers" };
    { first = 0x10190; last = 0x101CF; name = "Ancient Symbols" };
    { first = 0x101D0; last = 0x101FF; name = "Phaistos Disc" };
    { first = 0x10280; last = 0x1029F; name = "Lycian" };
    { first = 0x102A0; last = 0x102DF; name = "Carian" };
    { first = 0x102E0; last = 0x102FF; name = "Coptic Epact Numbers" };
    { first = 0x10300; last = 0x1032F; name = "Old Italic" };
    { first = 0x10330; last = 0x1034F; name = "Gothic" };
    { first = 0x10350; last = 0x1037F; name = "Old Permic" };
    { first = 0x10380; last = 0x1039F; name = "Ugaritic" };
    { first = 0x103A0; last = 0x103DF; name = "Old Persian" };
    { first = 0x10400; last = 0x1044F; name = "Deseret" };
    { first = 0x10450; last = 0x1047F; name = "Shavian" };
    { first = 0x10480; last = 0x104AF; name = "Osmanya" };
    { first = 0x104B0; last = 0x104FF; name = "Osage" };
    { first = 0x10500; last = 0x1052F; name = "Elbasan" };
    { first = 0x10530; last = 0x1056F; name = "Caucasian Albanian" };
    { first = 0x10570; last = 0x105BF; name = "Vithkuqi" };
    { first = 0x10600; last = 0x1077F; name = "Linear A" };
    { first = 0x10780; last = 0x107BF; name = "Latin Extended-F" };
    { first = 0x10800; last = 0x1083F; name = "Cypriot Syllabary" };
    { first = 0x10840; last = 0x1085F; name = "Imperial Aramaic" };
    { first = 0x10860; last = 0x1087F; name = "Palmyrene" };
    { first = 0x10880; last = 0x108AF; name = "Nabataean" };
    { first = 0x108E0; last = 0x108FF; name = "Hatran" };
    { first = 0x10900; last = 0x1091F; name = "Phoenician" };
    { first = 0x10920; last = 0x1093F; name = "Lydian" };
    { first = 0x10980; last = 0x1099F; name = "Meroitic Hieroglyphs" };
    { first = 0x109A0; last = 0x109FF; name = "Meroitic Cursive" };
    { first = 0x10A00; last = 0x10A5F; name = "Kharoshthi" };
    { first = 0x10A60; last = 0x10A7F; name = "Old South Arabian" };
    { first = 0x10A80; last = 0x10A9F; name = "Old North Arabian" };
    { first = 0x10AC0; last = 0x10AFF; name = "Manichaean" };
    { first = 0x10B00; last = 0x10B3F; name = "Avestan" };
    { first = 0x10B40; last = 0x10B5F; name = "Inscriptional Parthian" };
    { first = 0x10B60; last = 0x10B7F; name = "Inscriptional Pahlavi" };
    { first = 0x10B80; last = 0x10BAF; name = "Psalter Pahlavi" };
    { first = 0x10C00; last = 0x10C4F; name = "Old Turkic" };
    { first = 0x10C80; last = 0x10CFF; name = "Old Hungarian" };
    { first = 0x10D00; last = 0x10D3F; name = "Hanifi Rohingya" };
    { first = 0x10E60; last = 0x10E7F; name = "Rumi Numeral Symbols" };
    { first = 0x10E80; last = 0x10EBF; name = "Yezidi" };
    { first = 0x10EC0; last = 0x10EFF; name = "Arabic Extended-C" };
    { first = 0x10F00; last = 0x10F2F; name = "Old Sogdian" };
    { first = 0x10F30; last = 0x10F6F; name = "Sogdian" };
    { first = 0x10F70; last = 0x10FAF; name = "Old Uyghur" };
    { first = 0x10FB0; last = 0x10FDF; name = "Chorasmian" };
    { first = 0x10FE0; last = 0x10FFF; name = "Elymaic" };
    { first = 0x11000; last = 0x1107F; name = "Brahmi" };
    { first = 0x11080; last = 0x110CF; name = "Kaithi" };
    { first = 0x110D0; last = 0x110FF; name = "Sora Sompeng" };
    { first = 0x11100; last = 0x1114F; name = "Chakma" };
    { first = 0x11150; last = 0x1117F; name = "Mahajani" };
    { first = 0x11180; last = 0x111DF; name = "Sharada" };
    { first = 0x111E0; last = 0x111FF; name = "Sinhala Archaic Numbers" };
    { first = 0x11200; last = 0x1124F; name = "Khojki" };
    { first = 0x11280; last = 0x112AF; name = "Multani" };
    { first = 0x112B0; last = 0x112FF; name = "Khudawadi" };
    { first = 0x11300; last = 0x1137F; name = "Grantha" };
    { first = 0x11400; last = 0x1147F; name = "Newa" };
    { first = 0x11480; last = 0x114DF; name = "Tirhuta" };
    { first = 0x11580; last = 0x115FF; name = "Siddham" };
    { first = 0x11600; last = 0x1165F; name = "Modi" };
    { first = 0x11660; last = 0x1167F; name = "Mongolian Supplement" };
    { first = 0x11680; last = 0x116CF; name = "Takri" };
    { first = 0x11700; last = 0x1174F; name = "Ahom" };
    { first = 0x11800; last = 0x1184F; name = "Dogra" };
    { first = 0x118A0; last = 0x118FF; name = "Warang Citi" };
    { first = 0x11900; last = 0x1195F; name = "Dives Akuru" };
    { first = 0x119A0; last = 0x119FF; name = "Nandinagari" };
    { first = 0x11A00; last = 0x11A4F; name = "Zanabazar Square" };
    { first = 0x11A50; last = 0x11AAF; name = "Soyombo" };
    { first = 0x11AB0; last = 0x11ABF; name = "Unified Canadian Aboriginal Syllabics Extended-A" };
    { first = 0x11AC0; last = 0x11AFF; name = "Pau Cin Hau" };
    { first = 0x11B00; last = 0x11B5F; name = "Devanagari Extended-A" };
    { first = 0x11C00; last = 0x11C6F; name = "Bhaiksuki" };
    { first = 0x11C70; last = 0x11CBF; name = "Marchen" };
    { first = 0x11D00; last = 0x11D5F; name = "Masaram Gondi" };
    { first = 0x11D60; last = 0x11DAF; name = "Gunjala Gondi" };
    { first = 0x11EE0; last = 0x11EFF; name = "Makasar" };
    { first = 0x11F00; last = 0x11F5F; name = "Kawi" };
    { first = 0x11FB0; last = 0x11FBF; name = "Lisu Supplement" };
    { first = 0x11FC0; last = 0x11FFF; name = "Tamil Supplement" };
    { first = 0x12000; last = 0x123FF; name = "Cuneiform" };
    { first = 0x12400; last = 0x1247F; name = "Cuneiform Numbers and Punctuation" };
    { first = 0x12480; last = 0x1254F; name = "Early Dynastic Cuneiform" };
    { first = 0x12F90; last = 0x12FFF; name = "Cypro-Minoan" };
    { first = 0x13000; last = 0x1342F; name = "Egyptian Hieroglyphs" };
    { first = 0x13430; last = 0x1345F; name = "Egyptian Hieroglyph Format Controls" };
    { first = 0x14400; last = 0x1467F; name = "Anatolian Hieroglyphs" };
    { first = 0x16800; last = 0x16A3F; name = "Bamum Supplement" };
    { first = 0x16A40; last = 0x16A6F; name = "Mro" };
    { first = 0x16A70; last = 0x16ACF; name = "Tangsa" };
    { first = 0x16AD0; last = 0x16AFF; name = "Bassa Vah" };
    { first = 0x16B00; last = 0x16B8F; name = "Pahawh Hmong" };
    { first = 0x16E40; last = 0x16E9F; name = "Medefaidrin" };
    { first = 0x16F00; last = 0x16F9F; name = "Miao" };
    { first = 0x16FE0; last = 0x16FFF; name = "Ideographic Symbols and Punctuation" };
    { first = 0x17000; last = 0x187FF; name = "Tangut" };
    { first = 0x18800; last = 0x18AFF; name = "Tangut Components" };
    { first = 0x18B00; last = 0x18CFF; name = "Khitan Small Script" };
    { first = 0x18D00; last = 0x18D7F; name = "Tangut Supplement" };
    { first = 0x1AFF0; last = 0x1AFFF; name = "Kana Extended-B" };
    { first = 0x1B000; last = 0x1B0FF; name = "Kana Supplement" };
    { first = 0x1B100; last = 0x1B12F; name = "Kana Extended-A" };
    { first = 0x1B130; last = 0x1B16F; name = "Small Kana Extension" };
    { first = 0x1B170; last = 0x1B2FF; name = "Nushu" };
    { first = 0x1BC00; last = 0x1BC9F; name = "Duployan" };
    { first = 0x1BCA0; last = 0x1BCAF; name = "Shorthand Format Controls" };
    { first = 0x1CF00; last = 0x1CFCF; name = "Znamenny Musical Notation" };
    { first = 0x1D000; last = 0x1D0FF; name = "Byzantine Musical Symbols" };
    { first = 0x1D100; last = 0x1D1FF; name = "Musical Symbols" };
    { first = 0x1D200; last = 0x1D24F; name = "Ancient Greek Musical Notation" };
    { first = 0x1D2C0; last = 0x1D2DF; name = "Kaktovik Numerals" };
    { first = 0x1D2E0; last = 0x1D2FF; name = "Mayan Numerals" };
    { first = 0x1D300; last = 0x1D35F; name = "Tai Xuan Jing Symbols" };
    { first = 0x1D360; last = 0x1D37F; name = "Counting Rod Numerals" };
    { first = 0x1D400; last = 0x1D7FF; name = "Mathematical Alphanumeric Symbols" };
    { first = 0x1D800; last = 0x1DAAF; name = "Sutton SignWriting" };
    { first = 0x1DF00; last = 0x1DFFF; name = "Latin Extended-G" };
    { first = 0x1E000; last = 0x1E02F; name = "Glagolitic Supplement" };
    { first = 0x1E030; last = 0x1E08F; name = "Cyrillic Extended-D" };
    { first = 0x1E100; last = 0x1E14F; name = "Nyiakeng Puachue Hmong" };
    { first = 0x1E290; last = 0x1E2BF; name = "Toto" };
    { first = 0x1E2C0; last = 0x1E2FF; name = "Wancho" };
    { first = 0x1E4D0; last = 0x1E4FF; name = "Nag Mundari" };
    { first = 0x1E7E0; last = 0x1E7FF; name = "Ethiopic Extended-B" };
    { first = 0x1E800; last = 0x1E8DF; name = "Mende Kikakui" };
    { first = 0x1E900; last = 0x1E95F; name = "Adlam" };
    { first = 0x1EC70; last = 0x1ECBF; name = "Indic Siyaq Numbers" };
    { first = 0x1ED00; last = 0x1ED4F; name = "Ottoman Siyaq Numbers" };
    { first = 0x1EE00; last = 0x1EEFF; name = "Arabic Mathematical Alphabetic Symbols" };
    { first = 0x1F000; last = 0x1F02F; name = "Mahjong Tiles" };
    { first = 0x1F030; last = 0x1F09F; name = "Domino Tiles" };
    { first = 0x1F0A0; last = 0x1F0FF; name = "Playing Cards" };
    { first = 0x1F100; last = 0x1F1FF; name = "Enclosed Alphanumeric Supplement" };
    { first = 0x1F200; last = 0x1F2FF; name = "Enclosed Ideographic Supplement" };
    { first = 0x1F300; last = 0x1F5FF; name = "Miscellaneous Symbols and Pictographs" };
    { first = 0x1F600; last = 0x1F64F; name = "Emoticons" };
    { first = 0x1F650; last = 0x1F67F; name = "Ornamental Dingbats" };
    { first = 0x1F680; last = 0x1F6FF; name = "Transport and Map Symbols" };
    { first = 0x1F700; last = 0x1F77F; name = "Alchemical Symbols" };
    { first = 0x1F780; last = 0x1F7FF; name = "Geometric Shapes Extended" };
    { first = 0x1F800; last = 0x1F8FF; name = "Supplemental Arrows-C" };
    { first = 0x1F900; last = 0x1F9FF; name = "Supplemental Symbols and Pictographs" };
    { first = 0x1FA00; last = 0x1FA6F; name = "Chess Symbols" };
    { first = 0x1FA70; last = 0x1FAFF; name = "Symbols and Pictographs Extended-A" };
    { first = 0x1FB00; last = 0x1FBFF; name = "Symbols for Legacy Computing" };
    { first = 0x20000; last = 0x2A6DF; name = "CJK Unified Ideographs Extension B" };
    { first = 0x2A700; last = 0x2B73F; name = "CJK Unified Ideographs Extension C" };
    { first = 0x2B740; last = 0x2B81F; name = "CJK Unified Ideographs Extension D" };
    { first = 0x2B820; last = 0x2CEAF; name = "CJK Unified Ideographs Extension E" };
    { first = 0x2CEB0; last = 0x2EBEF; name = "CJK Unified Ideographs Extension F" };
    { first = 0x2F800; last = 0x2FA1F; name = "CJK Compatibility Ideographs Supplement" };
    { first = 0x30000; last = 0x3134F; name = "CJK Unified Ideographs Extension G" };
    { first = 0x31350; last = 0x323AF; name = "CJK Unified Ideographs Extension H" };
    { first = 0xE0000; last = 0xE007F; name = "Tags" };
    { first = 0xE0100; last = 0xE01EF; name = "Variation Selectors Supplement" };
    { first = 0xF0000; last = 0xFFFFF; name = "Supplementary Private Use Area-A" };
    { first = 0x100000; last = 0x10FFFF; name = "Supplementary Private Use Area-B" };
  |]

let count = Array.length all

(* Blocks are sorted by [first]; binary search.  Kept as the reference
   implementation: the flat BMP index below is generated from it and
   the test suite checks the two agree over the full code-point
   range. *)
let find_interval cp =
  let rec search lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let b = all.(mid) in
      if cp < b.first then search lo (mid - 1)
      else if cp > b.last then search (mid + 1) hi
      else Some b
  in
  search 0 (count - 1)

(* Flat block index over the BMP: one load replaces the binary search
   on the hot path (Idna.property is called per code point of every
   U-label).  Built eagerly at single-threaded module init, read-only
   afterwards. *)
let bmp_index =
  let t = Array.make 0x10000 (-1) in
  Array.iteri
    (fun i b ->
      if b.first <= 0xFFFF then
        for cp = b.first to min b.last 0xFFFF do
          Array.unsafe_set t cp i
        done)
    all;
  t

let find cp =
  if cp lsr 16 = 0 then
    let i = Array.unsafe_get bmp_index cp in
    if i < 0 then None else Some (Array.unsafe_get all i)
  else find_interval cp
